//! Lane-structured f32 kernels behind runtime CPU-feature dispatch.
//!
//! Every reduction kernel in this module — [`dot`], [`dist_sq`], the fused
//! [`cosine`] — is written against one fixed numeric recipe:
//!
//! 1. the input is consumed in blocks of [`LANES`] = 8 elements, each lane
//!    owning its own accumulator chain fed by fused multiply-adds
//!    (`f32::mul_add` / `vfmadd231ps`, one rounding per update);
//! 2. the tail (`len % 8` elements) folds into lanes `0..len % 8` with the
//!    same fused update (a lane that receives no tail element keeps its
//!    block-loop value exactly, because `fma(0, 0, acc) == acc`);
//! 3. the eight lane accumulators collapse in the fixed tree
//!    `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` (`reduce8`).
//!
//! The element-wise kernel [`axpy`] performs the same fused update per
//! output element in every implementation, so it is trivially
//! bit-identical. The register-tiled GEMMs ([`gemm`], [`gemm_nt`]) fix the
//! operation chain of every output element (see their docs), so the tile
//! shape and vector width are unobservable. Because the recipe — not the
//! instruction set — defines the result, the portable scalar path and
//! both SIMD paths (AVX2+FMA, AVX-512) return **bit-identical f32 for
//! every input length** (including the 1..=15 remainders that straddle
//! one or two vector registers). That is the determinism contract the
//! similarity cache and the smoke gate rely on: `WYM_KERNEL=scalar` and
//! `WYM_KERNEL=auto` runs of the full pipeline must emit identical scores.
//!
//! How each ISA keeps the recipe:
//!
//! * **AVX2+FMA** maps the eight lanes onto one `ymm` register
//!   (`vfmadd231ps`), tails run scalar `mul_add` into the stored lanes.
//! * **AVX-512** must *not* widen the f32 reductions to 16 lanes — that
//!   would change which elements share an accumulator chain and therefore
//!   the rounding — so [`dot`], [`cosine`] and [`dist_sq`] reuse the AVX2
//!   bodies verbatim (every AVX-512 CPU has AVX2), and the [`gemm_nt`] dot
//!   tile keeps 8-lane `ymm` chains too (AVX-512VL only gives it 32
//!   registers, enough for whole 4 × 4 tiles). Only [`axpy`] and the
//!   [`gemm`] tile, where each output element is one independent fused
//!   chain, and the exact-integer int8 kernels widen to full `zmm`
//!   registers — that is where the scorer's training and the blocking
//!   pass spend their bandwidth.
//!
//! Other architectures (aarch64 included) run the scalar path, which is
//! the reference every SIMD body must match bit for bit.
//!
//! Dispatch is resolved once per process ([`active`]) from CPU feature
//! detection plus the `WYM_KERNEL` environment variable
//! (`scalar|avx2|avx512|auto`; unset = `auto` picks the best
//! supported one, and a named ISA the host lacks falls back to `scalar`
//! with a warning — selection must never change results, so it is a
//! performance concern, not a correctness one). The pipeline records the
//! resolved choice as the `kernel.dispatch.<name>` obs counter.

use std::sync::OnceLock;

/// Lane width of the accumulator pattern (one AVX2 `ymm` register of f32).
pub const LANES: usize = 8;

/// A kernel implementation selectable at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelImpl {
    /// Portable 8-lane scalar path (`f32::mul_add` per update).
    Scalar,
    /// AVX2 + FMA path via `std::arch` intrinsics (x86_64 only).
    Avx2Fma,
    /// AVX-512 (F+BW) path: AVX2 bodies for the f32 reductions (the 8-lane
    /// recipe is fixed), `zmm`-wide element-wise f32 and int8 kernels
    /// (x86_64 only).
    Avx512,
}

/// Every implementation the dispatch layer knows about, in preference
/// order (best first). Hosts support a subset — see [`supported`].
pub const ALL_IMPLS: [KernelImpl; 3] =
    [KernelImpl::Avx512, KernelImpl::Avx2Fma, KernelImpl::Scalar];

impl KernelImpl {
    /// Stable short name, used for the `kernel.dispatch.*` obs counter and
    /// the `WYM_KERNEL` override values.
    pub fn name(self) -> &'static str {
        match self {
            KernelImpl::Scalar => "scalar",
            KernelImpl::Avx2Fma => "avx2_fma",
            KernelImpl::Avx512 => "avx512",
        }
    }
}

/// Whether this host can execute `imp`. `Scalar` is supported everywhere;
/// the SIMD paths require both the right target architecture and runtime
/// CPU feature detection.
pub fn supported(imp: KernelImpl) -> bool {
    match imp {
        KernelImpl::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx512 => {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vl")
        }
        #[allow(unreachable_patterns)]
        _ => false,
    }
}

/// The implementations this host supports, best first. Drives the
/// bit-identity test matrix, the `components_bench` kernel sweep, and the
/// smoke gate's kernel-matrix loop (via `wym kernels`-style probes).
pub fn available() -> Vec<KernelImpl> {
    ALL_IMPLS.into_iter().filter(|&imp| supported(imp)).collect()
}

/// The best implementation this CPU supports, ignoring `WYM_KERNEL`.
pub fn detect_best() -> KernelImpl {
    ALL_IMPLS.into_iter().find(|&imp| supported(imp)).unwrap_or(KernelImpl::Scalar)
}

/// The implementation every dispatched kernel call routes to, resolved once
/// per process from `WYM_KERNEL`:
///
/// * `scalar` — force the portable path;
/// * `avx2` (alias `avx2_fma`), `avx512` — request that ISA, with
///   a once-per-process warning and a **clean scalar fallback** when the
///   host does not support it;
/// * unset / empty / `auto` — [`detect_best`];
/// * anything else — warn once and use auto dispatch.
///
/// Warnings rather than failures are deliberate: kernel selection must
/// never change results, so a typo or an absent ISA is a performance
/// concern, not a correctness one.
pub fn active() -> KernelImpl {
    static ACTIVE: OnceLock<KernelImpl> = OnceLock::new();
    let request = |imp: KernelImpl| {
        if supported(imp) {
            imp
        } else {
            eprintln!(
                "warning: WYM_KERNEL={} is not supported on this host; \
                 falling back to scalar",
                imp.name()
            );
            KernelImpl::Scalar
        }
    };
    *ACTIVE.get_or_init(|| match std::env::var("WYM_KERNEL").ok().as_deref() {
        Some("scalar") => KernelImpl::Scalar,
        Some("avx2" | "avx2_fma") => request(KernelImpl::Avx2Fma),
        Some("avx512") => request(KernelImpl::Avx512),
        None | Some("") | Some("auto") => detect_best(),
        Some(other) => {
            eprintln!("warning: unknown WYM_KERNEL value {other:?}; using auto dispatch");
            detect_best()
        }
    })
}

/// Short name of the active implementation
/// (`scalar` / `avx2_fma` / `avx512`).
pub fn active_name() -> &'static str {
    active().name()
}

/// The fixed lane-reduction tree shared by every implementation.
#[inline(always)]
fn reduce8(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

// --- dispatched entry points ----------------------------------------------

/// Dot product `a · b` under the active implementation.
///
/// # Panics
/// Panics in debug builds on length mismatch.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_with(active(), a, b)
}

/// `y += alpha * x` (fused per element) under the active implementation.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    axpy_with(active(), alpha, x, y);
}

/// Squared Euclidean distance under the active implementation.
#[inline]
pub fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    dist_sq_with(active(), a, b)
}

/// Fused cosine similarity: `a·b`, `a·a`, and `b·b` accumulate in one pass
/// over the inputs, then combine as `(ab / (sqrt(aa) * sqrt(bb)))` clamped
/// to `[-1, 1]`, returning 0.0 when either norm is ≤ `f32::EPSILON` (the
/// all-zero `[UNP]` embedding contract). Each of the three accumulations
/// follows the standard lane recipe, so `aa` here is bit-identical to
/// `dot(a, a)` computed on its own.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    cosine_with(active(), a, b)
}

/// `c = a · b` under the active implementation: the register-tiled GEMM
/// behind `Matrix::matmul` and `Matrix::t_matmul`.
///
/// `a` is `m × k` (read through its strides), `b` is `k × n` row-major and
/// `c` is `m × n` row-major, fully overwritten. Every output element runs
/// one fixed chain, whatever the tile shape or vector width:
///
/// 1. the accumulator starts at `+0.0`;
/// 2. the inner dimension is consumed in aligned groups of four steps,
///    `acc = fma(a3, b3, fma(a2, b2, fma(a1, b1, fma(a0, b0, acc))))`, and
///    a group whose four coefficients `a(i, 4g..4g + 4)` are all zero
///    (after ReLU, a common case) is skipped;
/// 3. the `k % 4` tail steps run one `fma(a, b, acc)` each, skipping zero
///    coefficients.
///
/// Skipping is part of the recipe, not an optimisation: `fma(0, b, acc)`
/// is not `acc` when `b` is infinite or `acc` is `-0.0`. The bodies keep a
/// `GEMM_MR × NR` output tile in registers across the whole inner
/// dimension (AVX-512: `NR = 32`, two `zmm` per row, a row's dead groups
/// blended out; AVX2: `NR = 8`; scalar: one row at a time), so the result
/// is bit-identical across implementations.
///
/// # Panics
/// Panics when `b` or `c` is shorter than its shape.
#[inline]
pub fn gemm(a: StridedMat<'_>, b: &[f32], n: usize, c: &mut [f32]) {
    gemm_with(active(), a, b, n, c);
}

/// `c[i][j] = dot(a_i, b_j)` under the active implementation: the
/// transposed-right GEMM behind `Matrix::matmul_t`.
///
/// `a` holds `m` rows and `b` holds `n` rows, each of length `k`,
/// row-major; `c` is `m × n`, fully overwritten. Every element is exactly
/// [`dot`]'s recipe (8 lane chains, lane tail, `reduce8`); the AVX2 and
/// AVX-512 bodies compute 4 × 4 of them at once so each loaded block of
/// `a` and `b` feeds four chains.
///
/// # Panics
/// Panics when a buffer is shorter than its shape.
#[inline]
pub fn gemm_nt(a: &[f32], m: usize, b: &[f32], n: usize, k: usize, c: &mut [f32]) {
    gemm_nt_with(active(), a, m, b, n, k, c);
}

/// Integer dot product of two int8 vectors under the active implementation.
///
/// Every product `a[i] * b[i]` is exact in i32 and integer addition is
/// associative, so — unlike the f32 kernels — any accumulation order gives
/// the same result and bit-identity across implementations is structural,
/// not engineered. The i32 accumulator is exact for `len ≤ 133_000`
/// (|dot| ≤ len · 127²), far beyond any embedding dimension.
///
/// # Panics
/// Panics in debug builds on length mismatch.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    dot_i8_with(active(), a, b)
}

/// Integer squared Euclidean distance of two int8 vectors under the active
/// implementation. Exact for `len ≤ 33_000` (sum ≤ len · 254²).
#[inline]
pub fn dist_sq_i8(a: &[i8], b: &[i8]) -> i32 {
    dist_sq_i8_with(active(), a, b)
}

/// Fused int8 cosine: the exact integer dot scaled back to f32 by the two
/// per-vector quantization scales (`value ≈ q · scale`). Because the dot is
/// an exact integer and the two multiplies happen in one fixed order, the
/// result is bit-identical across implementations and thread counts — the
/// property the ANN blocking pass's determinism contract leans on.
#[inline]
pub fn cosine_i8(a: &[i8], b: &[i8], scale_a: f32, scale_b: f32) -> f32 {
    (dot_i8(a, b) as f32) * (scale_a * scale_b)
}

/// Largest absolute value in `v` (0.0 when empty) under the active
/// implementation — the absmax pass of symmetric int8 quantization.
///
/// `max` over finite f32 is exactly associative and commutative, so any
/// lane split gives the bit-identical result; like the int8 kernels,
/// cross-implementation identity is structural. `v` must hold finite
/// values (quantization inputs always are); NaN propagation order is
/// unspecified.
#[inline]
pub fn max_abs(v: &[f32]) -> f32 {
    max_abs_with(active(), v)
}

/// Symmetric int8 quantization of one row under the active implementation:
/// `out[i] = (src[i] * inv)` rounded to nearest-even, clamped to
/// `[-127, 127]`, narrowed to i8.
///
/// Each element is independent (no accumulation), so block width is
/// unobservable and every implementation is bit-identical — the scalar
/// path's `round_ties_even` is exactly the SIMD converts' round-to-nearest-
/// even mode. `src` must hold finite values; non-finite elements produce
/// implementation-defined codes.
///
/// # Panics
/// Panics in debug builds on length mismatch.
#[inline]
pub fn quantize_i8(src: &[f32], inv: f32, out: &mut [i8]) {
    quantize_i8_with(active(), src, inv, out);
}

// --- explicit-implementation entry points (tests, benches) ----------------

/// [`dot_i8`] under an explicitly chosen implementation.
#[inline]
pub fn dot_i8_with(imp: KernelImpl, a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    match imp {
        KernelImpl::Scalar => scalar::dot_i8(a, b),
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma => unsafe { avx2::dot_i8(a, b) },
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx512 => unsafe { avx512::dot_i8(a, b) },
        #[allow(unreachable_patterns)]
        _ => scalar::dot_i8(a, b),
    }
}

/// [`cosine_i8`] under an explicitly chosen implementation.
#[inline]
pub fn cosine_i8_with(imp: KernelImpl, a: &[i8], b: &[i8], scale_a: f32, scale_b: f32) -> f32 {
    (dot_i8_with(imp, a, b) as f32) * (scale_a * scale_b)
}

/// [`max_abs`] under an explicitly chosen implementation.
#[inline]
pub fn max_abs_with(imp: KernelImpl, v: &[f32]) -> f32 {
    match imp {
        KernelImpl::Scalar => scalar::max_abs(v),
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma => unsafe { avx2::max_abs(v) },
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx512 => unsafe { avx512::max_abs(v) },
        #[allow(unreachable_patterns)]
        _ => scalar::max_abs(v),
    }
}

/// [`quantize_i8`] under an explicitly chosen implementation.
#[inline]
pub fn quantize_i8_with(imp: KernelImpl, src: &[f32], inv: f32, out: &mut [i8]) {
    debug_assert_eq!(src.len(), out.len());
    match imp {
        KernelImpl::Scalar => scalar::quantize_i8(src, inv, out),
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma => unsafe { avx2::quantize_i8(src, inv, out) },
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx512 => unsafe { avx512::quantize_i8(src, inv, out) },
        #[allow(unreachable_patterns)]
        _ => scalar::quantize_i8(src, inv, out),
    }
}

/// [`dist_sq_i8`] under an explicitly chosen implementation.
#[inline]
pub fn dist_sq_i8_with(imp: KernelImpl, a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    match imp {
        KernelImpl::Scalar => scalar::dist_sq_i8(a, b),
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma => unsafe { avx2::dist_sq_i8(a, b) },
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx512 => unsafe { avx512::dist_sq_i8(a, b) },
        #[allow(unreachable_patterns)]
        _ => scalar::dist_sq_i8(a, b),
    }
}

/// [`dot`] under an explicitly chosen implementation.
#[inline]
pub fn dot_with(imp: KernelImpl, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    match imp {
        KernelImpl::Scalar => scalar::dot(a, b),
        // AVX-512 reuses the AVX2 reduction body: widening to 16 lanes
        // would change the accumulator chains and break bit-identity.
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma | KernelImpl::Avx512 => unsafe { avx2::dot(a, b) },
        #[allow(unreachable_patterns)]
        _ => scalar::dot(a, b),
    }
}

/// [`axpy`] under an explicitly chosen implementation.
#[inline]
pub fn axpy_with(imp: KernelImpl, alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    match imp {
        KernelImpl::Scalar => scalar::axpy(alpha, x, y),
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma => unsafe { avx2::axpy(alpha, x, y) },
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx512 => unsafe { avx512::axpy(alpha, x, y) },
        #[allow(unreachable_patterns)]
        _ => scalar::axpy(alpha, x, y),
    }
}

/// [`dist_sq`] under an explicitly chosen implementation.
#[inline]
pub fn dist_sq_with(imp: KernelImpl, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    match imp {
        KernelImpl::Scalar => scalar::dist_sq(a, b),
        // See `dot_with`: AVX-512 keeps the 8-lane AVX2 reduction body.
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma | KernelImpl::Avx512 => unsafe { avx2::dist_sq(a, b) },
        #[allow(unreachable_patterns)]
        _ => scalar::dist_sq(a, b),
    }
}

/// [`cosine`] under an explicitly chosen implementation.
#[inline]
pub fn cosine_with(imp: KernelImpl, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let [ab, aa, bb] = match imp {
        KernelImpl::Scalar => scalar::dot3(a, b),
        // See `dot_with`: AVX-512 keeps the 8-lane AVX2 reduction body.
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Avx2Fma | KernelImpl::Avx512 => unsafe { avx2::dot3(a, b) },
        #[allow(unreachable_patterns)]
        _ => scalar::dot3(a, b),
    };
    let (na, nb) = (aa.sqrt(), bb.sqrt());
    if na <= f32::EPSILON || nb <= f32::EPSILON {
        return 0.0;
    }
    (ab / (na * nb)).clamp(-1.0, 1.0)
}

/// Rows of every GEMM register tile: [`gemm`] packs its left operand one
/// tile of this many rows at a time, and each body keeps `GEMM_MR` output
/// rows in registers.
pub const GEMM_MR: usize = 8;

/// The left operand of [`gemm`]: a `rows × cols` matrix read through
/// element strides, `a(i, p) = data[i * row_stride + p * col_stride]`, so
/// `Matrix::t_matmul` passes `selfᵀ` without materialising it.
#[derive(Debug, Clone, Copy)]
pub struct StridedMat<'a> {
    /// Backing buffer.
    pub data: &'a [f32],
    /// Number of rows (`m`).
    pub rows: usize,
    /// Number of columns (`k`, the inner dimension).
    pub cols: usize,
    /// Distance between vertically adjacent elements.
    pub row_stride: usize,
    /// Distance between horizontally adjacent elements.
    pub col_stride: usize,
}

/// One `GEMM_MR`-row tile of [`gemm`]'s left operand, packed for the tile
/// bodies: `vals[p][r]` holds `a(row r, step p)` (zero past the last row),
/// and `live[s][r]` flags whether row `r` runs step slot `s` — slots
/// `0..k / 4` are the four-step groups (live when any of the four
/// coefficients is nonzero), the rest the tail steps (live when the
/// coefficient is). A flag is all-ones or all-zero so the AVX-512 body can
/// use it directly as a mask.
#[derive(Default)]
struct PackedTile {
    vals: Vec<[f32; GEMM_MR]>,
    live: Vec<[u16; GEMM_MR]>,
}

impl PackedTile {
    /// Packs rows `i0..i0 + GEMM_MR` of `a`, reusing the buffers (no
    /// allocation once they hold one tile of this inner dimension).
    fn pack(&mut self, a: StridedMat<'_>, i0: usize) {
        let k = a.cols;
        let groups = k / 4;
        let rows = GEMM_MR.min(a.rows - i0);
        let (base, cs) = (&a.data[i0 * a.row_stride..], a.col_stride);
        self.vals.clear();
        self.vals.resize(k, [0.0; GEMM_MR]);
        if rows == GEMM_MR && a.row_stride == 1 {
            // `t_matmul`'s transposed operand: each step's rows are
            // contiguous.
            for (p, step) in self.vals.iter_mut().enumerate() {
                step.copy_from_slice(&base[p * cs..][..GEMM_MR]);
            }
        } else if rows == GEMM_MR && cs == 1 {
            // `matmul`'s row-major operand: gather one step from each row.
            let r: [&[f32]; GEMM_MR] = std::array::from_fn(|r| &base[r * a.row_stride..][..k]);
            for (p, step) in self.vals.iter_mut().enumerate() {
                *step = std::array::from_fn(|i| r[i][p]);
            }
        } else {
            for r in 0..rows {
                let row = &base[r * a.row_stride..];
                for (p, step) in self.vals.iter_mut().enumerate() {
                    step[r] = row[p * cs];
                }
            }
        }
        self.live.clear();
        for s in 0..groups + k % 4 {
            let steps =
                if s < groups { 4 * s..4 * s + 4 } else { s + 3 * groups..s + 3 * groups + 1 };
            // Nonzero ⇔ any bit but the sign set (`-0.0` counts as zero,
            // NaN as nonzero, as with `!= 0.0`).
            let mut any = [0u32; GEMM_MR];
            for step in &self.vals[steps] {
                for (x, &v) in any.iter_mut().zip(step) {
                    *x |= v.to_bits() & 0x7fff_ffff;
                }
            }
            self.live.push(any.map(|x| if x != 0 { u16::MAX } else { 0 }));
        }
    }
}

thread_local! {
    /// Per-thread packing buffer of [`gemm`]: one row tile, grown to the
    /// longest inner dimension seen and then reused, so steady-state GEMMs
    /// do not allocate.
    static PACKED: std::cell::RefCell<PackedTile> = std::cell::RefCell::default();
}

/// [`gemm`] under an explicitly chosen implementation.
pub fn gemm_with(imp: KernelImpl, a: StridedMat<'_>, b: &[f32], n: usize, c: &mut [f32]) {
    let (m, k) = (a.rows, a.cols);
    assert!(b.len() >= k * n, "gemm: b holds {} values, shape {k}x{n}", b.len());
    assert!(c.len() >= m * n, "gemm: c holds {} values, shape {m}x{n}", c.len());
    if m > 0 && k > 0 {
        let last = (m - 1) * a.row_stride + (k - 1) * a.col_stride;
        assert!(last < a.data.len(), "gemm: a is shorter than its {m}x{k} shape");
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // No steps: every accumulator stays at its initial +0.0.
        c[..m * n].fill(0.0);
        return;
    }
    // Column-panel width: two `zmm` per tile row on AVX-512, one `ymm` on
    // AVX2, eight scalar accumulators otherwise.
    let nr = match imp {
        KernelImpl::Avx512 => 32,
        _ => 8,
    };
    PACKED.with(|cell| {
        let mut packed = cell.borrow_mut();
        // Tile-outer order: each row tile packs once (a few KiB, L1
        // resident) and sweeps every column panel of `b` from L2.
        for i0 in (0..m).step_by(GEMM_MR) {
            packed.pack(a, i0);
            let rows = GEMM_MR.min(m - i0);
            for j0 in (0..n).step_by(nr) {
                let cols = nr.min(n - j0);
                let (vals, live) = (packed.vals.as_flattened(), packed.live.as_flattened());
                let tile = Tile { a: vals, live, b: &b[j0..], ldb: n, rows, cols };
                let c = &mut c[i0 * n + j0..];
                // SAFETY: dispatch only selects these ISAs after CPUID
                // detection, and the length asserts above give the panel
                // `(k - 1) * n + cols` values of `b` and the tile
                // `(rows - 1) * n + cols` values of `c` from its origin.
                match imp {
                    #[cfg(target_arch = "x86_64")]
                    KernelImpl::Avx2Fma => unsafe { avx2::gemm_tile(&tile, c, n) },
                    #[cfg(target_arch = "x86_64")]
                    KernelImpl::Avx512 => unsafe { avx512::gemm_tile(&tile, c, n) },
                    _ => scalar::gemm_tile(&tile, c, n),
                }
            }
        }
    });
}

/// One `GEMM_MR`-row tile of [`gemm`] against a column panel of `b`.
struct Tile<'a> {
    /// Packed tile values, `a[p * GEMM_MR + r]`.
    a: &'a [f32],
    /// Packed live flags, `live[s * GEMM_MR + r]`.
    live: &'a [u16],
    /// `b` from the panel's first column on, row stride `ldb`.
    b: &'a [f32],
    ldb: usize,
    /// Valid rows (`≤ GEMM_MR`) and panel columns.
    rows: usize,
    cols: usize,
}

/// [`gemm_nt`] under an explicitly chosen implementation.
pub fn gemm_nt_with(
    imp: KernelImpl,
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    k: usize,
    c: &mut [f32],
) {
    assert!(a.len() >= m * k, "gemm_nt: a holds {} values, shape {m}x{k}", a.len());
    assert!(b.len() >= n * k, "gemm_nt: b holds {} values, shape {n}x{k}", b.len());
    assert!(c.len() >= m * n, "gemm_nt: c holds {} values, shape {m}x{n}", c.len());
    let (mut m4, mut n4) = (0, 0);
    #[cfg(target_arch = "x86_64")]
    if matches!(imp, KernelImpl::Avx2Fma | KernelImpl::Avx512) {
        (m4, n4) = (m / 4 * 4, n / 4 * 4);
        for i in (0..m4).step_by(4) {
            for j in (0..n4).step_by(4) {
                // SAFETY: dispatch only selects these ISAs after CPUID
                // detection, and rows i..i+4 / j..j+4 are in bounds.
                unsafe {
                    if imp == KernelImpl::Avx512 {
                        avx512::dot_tile(&a[i * k..], &b[j * k..], k, &mut c[i * n + j..], n);
                    } else {
                        // Two-row halves: 16 `ymm` registers hold 2 × 4 chains.
                        for h in [0, 2] {
                            let (a, c) = (&a[(i + h) * k..], &mut c[(i + h) * n + j..]);
                            avx2::dot_tile(a, &b[j * k..], k, c, n);
                        }
                    }
                }
            }
        }
    }
    // Ragged edges (and every element without a tile body): per-element
    // dot, the same recipe.
    for i in 0..m {
        let js = if i < m4 { n4..n } else { 0..n };
        for j in js {
            c[i * n + j] = dot_with(imp, &a[i * k..][..k], &b[j * k..][..k]);
        }
    }
}

/// Stamps out the [`gemm_nt`] dot tile for one instruction set: `$rows`
/// rows of `a` against four rows of `b`, each of the `$rows × 4` dot
/// products with its own 8-lane `ymm` accumulator, lane tail and `reduce8`
/// tree — [`dot`]'s recipe, so every result is bit-identical to it. Each
/// loaded block of a row feeds four (or `$rows`) chains. AVX2 has 16 `ymm`
/// registers and runs two-row halves; AVX-512VL addresses 32 and runs
/// whole four-row tiles (about 1.4× faster on the scorer's `∂X` shape).
macro_rules! dot_tile {
    ($features:literal, $rows:literal) => {
        /// `c[i * ldc + j] = dot(a_i, b_j)` for `i < $rows`, `j < 4` (see
        /// the `dot_tile!` macro).
        ///
        /// # Safety
        /// The caller must have verified the module's CPU features; `a`
        /// must hold `$rows` rows of `k` values, `b` four, and `c`
        /// `($rows - 1) * ldc + 4`.
        #[target_feature(enable = $features)]
        pub(super) unsafe fn dot_tile(a: &[f32], b: &[f32], k: usize, c: &mut [f32], ldc: usize) {
            const R: usize = $rows;
            debug_assert!(a.len() >= R * k && b.len() >= 4 * k && c.len() >= (R - 1) * ldc + 4);
            let blocks = k / LANES * LANES;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = [[_mm256_setzero_ps(); 4]; R];
            let mut p = 0;
            while p < blocks {
                let mut va = [_mm256_setzero_ps(); R];
                for (i, v) in va.iter_mut().enumerate() {
                    *v = _mm256_loadu_ps(pa.add(i * k + p));
                }
                for j in 0..4 {
                    let vb = _mm256_loadu_ps(pb.add(j * k + p));
                    for (row, &x) in acc.iter_mut().zip(&va) {
                        row[j] = _mm256_fmadd_ps(x, vb, row[j]);
                    }
                }
                p += LANES;
            }
            // Tail: fold the last `k % 8` elements into lanes `0..k % 8`
            // with the same fused update; the blend leaves the other lanes
            // exactly as they are.
            if blocks < k {
                let live = _mm256_cmpgt_epi32(
                    _mm256_set1_epi32((k - blocks) as i32),
                    _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                );
                let mut vb = [_mm256_setzero_ps(); 4];
                for (j, v) in vb.iter_mut().enumerate() {
                    *v = _mm256_maskload_ps(pb.add(j * k + blocks), live);
                }
                for (i, row) in acc.iter_mut().enumerate() {
                    let va = _mm256_maskload_ps(pa.add(i * k + blocks), live);
                    for (x, &y) in row.iter_mut().zip(&vb) {
                        let t = _mm256_fmadd_ps(va, y, *x);
                        *x = _mm256_blendv_ps(*x, t, _mm256_castsi256_ps(live));
                    }
                }
            }
            // `reduce8` of four accumulators at once: the first `hadd`
            // forms (l0+l1), (l2+l3), (l4+l5), (l6+l7), the second their
            // pairwise sums, and the 128-bit halves add last.
            for (i, row) in acc.iter().enumerate() {
                let h = _mm256_hadd_ps(
                    _mm256_hadd_ps(row[0], row[1]),
                    _mm256_hadd_ps(row[2], row[3]),
                );
                let v = _mm_add_ps(_mm256_castps256_ps128(h), _mm256_extractf128_ps::<1>(h));
                _mm_storeu_ps(c.as_mut_ptr().add(i * ldc), v);
            }
        }
    };
}

// --- portable 8-lane scalar implementation --------------------------------

/// The portable reference implementation: the exact lane recipe of the SIMD
/// path expressed with `f32::mul_add`, which glibc/LLVM lower to a hardware
/// FMA where one exists and to the correctly rounded soft-float `fmaf`
/// otherwise — in both cases one rounding per update, like `vfmadd`.
pub mod scalar {
    use super::{reduce8, Tile, GEMM_MR, LANES};

    /// 8-lane dot product.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        let blocks = a.len() / LANES * LANES;
        for (ca, cb) in a[..blocks].chunks_exact(LANES).zip(b[..blocks].chunks_exact(LANES)) {
            for l in 0..LANES {
                acc[l] = ca[l].mul_add(cb[l], acc[l]);
            }
        }
        for l in 0..a.len() - blocks {
            acc[l] = a[blocks + l].mul_add(b[blocks + l], acc[l]);
        }
        reduce8(acc)
    }

    /// Fused `a·b`, `a·a`, `b·b` in one pass; each follows the dot recipe.
    pub fn dot3(a: &[f32], b: &[f32]) -> [f32; 3] {
        let mut ab = [0.0f32; LANES];
        let mut aa = [0.0f32; LANES];
        let mut bb = [0.0f32; LANES];
        let blocks = a.len() / LANES * LANES;
        for (ca, cb) in a[..blocks].chunks_exact(LANES).zip(b[..blocks].chunks_exact(LANES)) {
            for l in 0..LANES {
                ab[l] = ca[l].mul_add(cb[l], ab[l]);
                aa[l] = ca[l].mul_add(ca[l], aa[l]);
                bb[l] = cb[l].mul_add(cb[l], bb[l]);
            }
        }
        for l in 0..a.len() - blocks {
            let (x, y) = (a[blocks + l], b[blocks + l]);
            ab[l] = x.mul_add(y, ab[l]);
            aa[l] = x.mul_add(x, aa[l]);
            bb[l] = y.mul_add(y, bb[l]);
        }
        [reduce8(ab), reduce8(aa), reduce8(bb)]
    }

    /// 8-lane squared distance: `d = a - b` rounds once, then `fma(d, d, acc)`.
    pub fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        let blocks = a.len() / LANES * LANES;
        for (ca, cb) in a[..blocks].chunks_exact(LANES).zip(b[..blocks].chunks_exact(LANES)) {
            for l in 0..LANES {
                let d = ca[l] - cb[l];
                acc[l] = d.mul_add(d, acc[l]);
            }
        }
        for l in 0..a.len() - blocks {
            let d = a[blocks + l] - b[blocks + l];
            acc[l] = d.mul_add(d, acc[l]);
        }
        reduce8(acc)
    }

    /// Element-wise fused `y[i] = fma(alpha, x[i], y[i])`.
    pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi = alpha.mul_add(xi, *yi);
        }
    }

    /// Integer int8 dot product (exact; see [`super::dot_i8`]).
    pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        let mut acc = 0i32;
        for (&x, &y) in a.iter().zip(b) {
            acc += x as i32 * y as i32;
        }
        acc
    }

    /// Integer int8 squared distance (exact; see [`super::dist_sq_i8`]).
    pub fn dist_sq_i8(a: &[i8], b: &[i8]) -> i32 {
        let mut acc = 0i32;
        for (&x, &y) in a.iter().zip(b) {
            let d = x as i32 - y as i32;
            acc += d * d;
        }
        acc
    }

    /// Largest absolute value (exactly associative; see [`super::max_abs`]).
    pub fn max_abs(v: &[f32]) -> f32 {
        v.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Element-wise symmetric int8 quantization (see
    /// [`super::quantize_i8`]): `round_ties_even` is the same
    /// round-to-nearest-even the SIMD converts use.
    pub fn quantize_i8(src: &[f32], inv: f32, out: &mut [i8]) {
        for (o, &v) in out.iter_mut().zip(src) {
            *o = (v * inv).round_ties_even().clamp(-127.0, 127.0) as i8;
        }
    }

    /// One [`super::gemm`] tile, one row at a time: the row's `LANES`
    /// accumulators stay in locals across the whole inner dimension, and a
    /// dead group or tail step (see the live flags) is skipped.
    pub(super) fn gemm_tile(t: &Tile<'_>, c: &mut [f32], ldc: usize) {
        let k = t.a.len() / GEMM_MR;
        let groups = k / 4;
        let b = |p: usize| &t.b[p * t.ldb..][..t.cols];
        for r in 0..t.rows {
            let mut acc = [0.0f32; LANES];
            let acc = &mut acc[..t.cols];
            for g in 0..groups {
                if t.live[g * GEMM_MR + r] == 0 {
                    continue;
                }
                let p = 4 * g;
                let a = |j: usize| t.a[(p + j) * GEMM_MR + r];
                let (a0, a1, a2, a3) = (a(0), a(1), a(2), a(3));
                let (b0, b1, b2, b3) = (b(p), b(p + 1), b(p + 2), b(p + 3));
                for (i, o) in acc.iter_mut().enumerate() {
                    let mut x = a0.mul_add(b0[i], *o);
                    x = a1.mul_add(b1[i], x);
                    x = a2.mul_add(b2[i], x);
                    *o = a3.mul_add(b3[i], x);
                }
            }
            for s in groups..groups + k % 4 {
                if t.live[s * GEMM_MR + r] == 0 {
                    continue;
                }
                let p = s + 3 * groups;
                let a = t.a[p * GEMM_MR + r];
                for (o, &bv) in acc.iter_mut().zip(b(p)) {
                    *o = a.mul_add(bv, *o);
                }
            }
            c[r * ldc..][..t.cols].copy_from_slice(acc);
        }
    }
}

// --- AVX2 + FMA implementation --------------------------------------------

/// AVX2+FMA implementation. Every function is `unsafe` because it requires
/// the `avx2`/`fma` target features; callers go through the dispatched
/// entry points, which only select this module after CPUID detection.
///
/// The block loop maps one lane accumulator to one `ymm` lane; the scalar
/// tail runs under the same `#[target_feature]` scope, so its
/// `f32::mul_add` compiles to the `vfmadd` instruction — the identical
/// operation the vector body performs per lane.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::{reduce8, Tile, GEMM_MR, LANES};
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_andnot_ps, _mm256_blendv_ps, _mm256_castps256_ps128,
        _mm256_castsi256_ps, _mm256_castsi256_si128, _mm256_cmpgt_epi32, _mm256_cvtepi8_epi16,
        _mm256_cvtps_epi32, _mm256_extractf128_ps, _mm256_extracti128_si256, _mm256_fmadd_ps,
        _mm256_hadd_ps, _mm256_loadu_ps, _mm256_madd_epi16, _mm256_maskload_ps,
        _mm256_maskstore_ps, _mm256_max_epi32, _mm256_max_ps, _mm256_min_epi32, _mm256_mul_ps,
        _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_ps,
        _mm256_setzero_si256, _mm256_storeu_ps, _mm256_storeu_si256, _mm256_sub_epi16,
        _mm256_sub_ps, _mm_add_ps, _mm_loadu_si128, _mm_packs_epi16, _mm_packs_epi32,
        _mm_storel_epi64, _mm_storeu_ps,
    };

    /// 8-lane dot product.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (via
    /// [`super::detect_best`]) before calling.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let blocks = a.len() / LANES * LANES;
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < blocks {
            let va = _mm256_loadu_ps(a.as_ptr().add(i));
            let vb = _mm256_loadu_ps(b.as_ptr().add(i));
            acc = _mm256_fmadd_ps(va, vb, acc);
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for l in 0..a.len() - blocks {
            lanes[l] = a[blocks + l].mul_add(b[blocks + l], lanes[l]);
        }
        reduce8(lanes)
    }

    /// Fused `a·b`, `a·a`, `b·b` in one pass.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (via
    /// [`super::detect_best`]) before calling.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot3(a: &[f32], b: &[f32]) -> [f32; 3] {
        let blocks = a.len() / LANES * LANES;
        let mut ab = _mm256_setzero_ps();
        let mut aa = _mm256_setzero_ps();
        let mut bb = _mm256_setzero_ps();
        let mut i = 0;
        while i < blocks {
            let va = _mm256_loadu_ps(a.as_ptr().add(i));
            let vb = _mm256_loadu_ps(b.as_ptr().add(i));
            ab = _mm256_fmadd_ps(va, vb, ab);
            aa = _mm256_fmadd_ps(va, va, aa);
            bb = _mm256_fmadd_ps(vb, vb, bb);
            i += LANES;
        }
        let mut lab = [0.0f32; LANES];
        let mut laa = [0.0f32; LANES];
        let mut lbb = [0.0f32; LANES];
        _mm256_storeu_ps(lab.as_mut_ptr(), ab);
        _mm256_storeu_ps(laa.as_mut_ptr(), aa);
        _mm256_storeu_ps(lbb.as_mut_ptr(), bb);
        for l in 0..a.len() - blocks {
            let (x, y) = (a[blocks + l], b[blocks + l]);
            lab[l] = x.mul_add(y, lab[l]);
            laa[l] = x.mul_add(x, laa[l]);
            lbb[l] = y.mul_add(y, lbb[l]);
        }
        [reduce8(lab), reduce8(laa), reduce8(lbb)]
    }

    /// 8-lane squared distance.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (via
    /// [`super::detect_best`]) before calling.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
        let blocks = a.len() / LANES * LANES;
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < blocks {
            let va = _mm256_loadu_ps(a.as_ptr().add(i));
            let vb = _mm256_loadu_ps(b.as_ptr().add(i));
            let d = _mm256_sub_ps(va, vb);
            acc = _mm256_fmadd_ps(d, d, acc);
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for l in 0..a.len() - blocks {
            let d = a[blocks + l] - b[blocks + l];
            lanes[l] = d.mul_add(d, lanes[l]);
        }
        reduce8(lanes)
    }

    /// Element-wise fused `y[i] = fma(alpha, x[i], y[i])`.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (via
    /// [`super::detect_best`]) before calling.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let blocks = x.len() / LANES * LANES;
        let va = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i < blocks {
            let vx = _mm256_loadu_ps(x.as_ptr().add(i));
            let vy = _mm256_loadu_ps(y.as_ptr().add(i));
            _mm256_storeu_ps(y.as_mut_ptr().add(i), _mm256_fmadd_ps(va, vx, vy));
            i += LANES;
        }
        for l in blocks..x.len() {
            y[l] = alpha.mul_add(x[l], y[l]);
        }
    }

    /// Width of one int8 block: 16 lanes widened to i16 in one `ymm`.
    const I8_BLOCK: usize = 16;

    /// Integer int8 dot product: 16 int8 lanes sign-extend to i16
    /// (`vpmovsxbw`), multiply-accumulate pairwise into 8 i32 lanes
    /// (`vpmaddwd`), and the lanes sum at the end. All arithmetic is exact
    /// integer, so the result equals the scalar loop for any input.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (via
    /// [`super::detect_best`]) before calling.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        let blocks = a.len() / I8_BLOCK * I8_BLOCK;
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i < blocks {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i).cast()));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i).cast()));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
            i += I8_BLOCK;
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        let mut total: i32 = lanes.iter().sum();
        for l in blocks..a.len() {
            total += a[l] as i32 * b[l] as i32;
        }
        total
    }

    /// Integer int8 squared distance: differences in i16 (range ±254, no
    /// overflow), squared and pair-summed by `vpmaddwd`. Exact integer.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (via
    /// [`super::detect_best`]) before calling.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dist_sq_i8(a: &[i8], b: &[i8]) -> i32 {
        let blocks = a.len() / I8_BLOCK * I8_BLOCK;
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i < blocks {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i).cast()));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i).cast()));
            let d = _mm256_sub_epi16(va, vb);
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d, d));
            i += I8_BLOCK;
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        let mut total: i32 = lanes.iter().sum();
        for l in blocks..a.len() {
            let d = a[l] as i32 - b[l] as i32;
            total += d * d;
        }
        total
    }

    /// Largest absolute value: 8-lane `vmaxps` over sign-stripped lanes,
    /// folded with scalar `max` at the end. Exactly associative, so
    /// bit-identical to the scalar fold for finite inputs.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (via
    /// [`super::detect_best`]) before calling.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn max_abs(v: &[f32]) -> f32 {
        let blocks = v.len() / LANES * LANES;
        let sign = _mm256_set1_ps(-0.0);
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < blocks {
            let x = _mm256_andnot_ps(sign, _mm256_loadu_ps(v.as_ptr().add(i)));
            acc = _mm256_max_ps(acc, x);
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut m = lanes.iter().fold(0.0f32, |m, &x| m.max(x));
        for &x in &v[blocks..] {
            m = m.max(x.abs());
        }
        m
    }

    /// Element-wise symmetric int8 quantization, 8 elements per block:
    /// `vmulps` → `vcvtps2dq` (round-to-nearest-even, same as the scalar
    /// `round_ties_even`) → i32 clamp to ±127 → saturating packs to i8.
    /// Element-independent, so bit-identical to the scalar path for finite
    /// inputs at any block width.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support (via
    /// [`super::detect_best`]) before calling.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn quantize_i8(src: &[f32], inv: f32, out: &mut [i8]) {
        let blocks = src.len() / LANES * LANES;
        let vinv = _mm256_set1_ps(inv);
        let vmin = _mm256_set1_epi32(-127);
        let vmax = _mm256_set1_epi32(127);
        let mut i = 0;
        while i < blocks {
            let t = _mm256_mul_ps(_mm256_loadu_ps(src.as_ptr().add(i)), vinv);
            let r = _mm256_cvtps_epi32(t);
            let c = _mm256_min_epi32(_mm256_max_epi32(r, vmin), vmax);
            let w = _mm_packs_epi32(
                _mm256_castsi256_si128(c),
                _mm256_extracti128_si256::<1>(c),
            );
            _mm_storel_epi64(out.as_mut_ptr().add(i).cast(), _mm_packs_epi16(w, w));
            i += LANES;
        }
        for l in blocks..src.len() {
            out[l] = (src[l] * inv).round_ties_even().clamp(-127.0, 127.0) as i8;
        }
    }

    /// Lanes `0..n` of a `ymm` as a `vmaskmovps` mask.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lane_mask(n: usize) -> __m256i {
        _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
    }

    /// One [`super::gemm`] tile: `GEMM_MR` rows by one `ymm` of columns,
    /// the accumulators in registers across the whole inner dimension.
    /// Each group's four rows of `b` load once for all tile rows; a row
    /// whose group is dead branches past it.
    ///
    /// # Safety
    /// The caller must have verified AVX2+FMA support; `t.b` must hold
    /// `(k - 1) * t.ldb + t.cols` values and `c` `(t.rows - 1) * ldc +
    /// t.cols`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm_tile(t: &Tile<'_>, c: &mut [f32], ldc: usize) {
        let k = t.a.len() / GEMM_MR;
        let groups = k / 4;
        debug_assert!(k == 0 || t.b.len() >= (k - 1) * t.ldb + t.cols);
        debug_assert!(c.len() >= (t.rows - 1) * ldc + t.cols);
        let mask = lane_mask(t.cols);
        let (a, b) = (t.a.as_ptr(), t.b.as_ptr());
        let mut acc = [_mm256_setzero_ps(); GEMM_MR];
        for g in 0..groups {
            let live = &t.live[g * GEMM_MR..][..GEMM_MR];
            if live == [0; GEMM_MR] {
                continue;
            }
            let p = 4 * g;
            let bv = [
                _mm256_maskload_ps(b.add(p * t.ldb), mask),
                _mm256_maskload_ps(b.add((p + 1) * t.ldb), mask),
                _mm256_maskload_ps(b.add((p + 2) * t.ldb), mask),
                _mm256_maskload_ps(b.add((p + 3) * t.ldb), mask),
            ];
            for r in 0..GEMM_MR {
                if live[r] == 0 {
                    continue;
                }
                let ar = a.add(p * GEMM_MR + r);
                let mut x = acc[r];
                for (j, bj) in bv.iter().enumerate() {
                    x = _mm256_fmadd_ps(_mm256_set1_ps(*ar.add(j * GEMM_MR)), *bj, x);
                }
                acc[r] = x;
            }
        }
        for s in groups..groups + k % 4 {
            let p = s + 3 * groups;
            let bv = _mm256_maskload_ps(b.add(p * t.ldb), mask);
            for (r, x) in acc.iter_mut().enumerate() {
                if t.live[s * GEMM_MR + r] != 0 {
                    *x = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(p * GEMM_MR + r)), bv, *x);
                }
            }
        }
        for (r, x) in acc.iter().enumerate().take(t.rows) {
            _mm256_maskstore_ps(c.as_mut_ptr().add(r * ldc), mask, *x);
        }
    }

    dot_tile!("avx2,fma", 2);
}

// --- AVX-512 implementation -----------------------------------------------

/// AVX-512 (F + BW) implementation of the kernels that can widen to `zmm`
/// registers **without** touching the 8-lane reduction recipe:
///
/// * [`axpy`] and the [`gemm`] tile — each
///   output element is its own independent fused-multiply-add chain, so
///   block width is unobservable and 16-wide blocks are bit-identical;
/// * the int8 kernels — exact integer arithmetic is associative, so any
///   accumulation order (here 32 int8 lanes widened to one `zmm` of i16,
///   `vpmaddwd` into 16 i32 lanes) gives the identical result.
///
/// The f32 *reductions* (`dot`, `dot3`, `dist_sq`, and the
/// [`gemm_nt`] dot tile) are deliberately absent:
/// widening them to 16 accumulator lanes would change which elements share
/// a chain and therefore the rounding. The dispatch layer routes them to
/// the [`avx2`] bodies instead (every AVX-512 host also has AVX2+FMA).
#[cfg(target_arch = "x86_64")]
pub mod avx512 {
    use super::{Tile, GEMM_MR, LANES};
    use std::arch::x86_64::{
        __mmask16, _mm256_blendv_ps, _mm256_castps256_ps128, _mm256_castsi256_ps,
        _mm256_cmpgt_epi32, _mm256_extractf128_ps, _mm256_fmadd_ps, _mm256_hadd_ps,
        _mm256_loadu_ps, _mm256_loadu_si256, _mm256_maskload_ps, _mm256_set1_epi32,
        _mm256_setr_epi32, _mm256_setzero_ps, _mm512_abs_ps, _mm512_add_epi32,
        _mm512_cvtepi32_epi8, _mm512_cvtepi8_epi16, _mm512_cvtps_epi32, _mm512_fmadd_ps,
        _mm512_loadu_ps, _mm512_madd_epi16, _mm512_mask3_fmadd_ps, _mm512_mask_blend_ps,
        _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_max_epi32, _mm512_max_ps,
        _mm512_min_epi32, _mm512_mul_ps, _mm512_set1_epi32, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_setzero_si512, _mm512_storeu_ps, _mm512_storeu_si512, _mm512_sub_epi16, _mm_add_ps,
        _mm_storeu_ps, _mm_storeu_si128,
    };

    /// f32 elements per `zmm` register.
    const W: usize = 16;

    /// int8 elements widened into one `zmm` of i16 per block.
    const I8_BLOCK: usize = 32;

    /// Element-wise fused `y[i] = fma(alpha, x[i], y[i])`, 16 elements per
    /// block. Identical per-element operation as the scalar and AVX2 paths.
    ///
    /// # Safety
    /// The caller must have verified AVX-512 F support (via
    /// [`super::supported`]) before calling.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let blocks = x.len() / W * W;
        let va = _mm512_set1_ps(alpha);
        let mut i = 0;
        while i < blocks {
            let vx = _mm512_loadu_ps(x.as_ptr().add(i));
            let vy = _mm512_loadu_ps(y.as_ptr().add(i));
            _mm512_storeu_ps(y.as_mut_ptr().add(i), _mm512_fmadd_ps(va, vx, vy));
            i += W;
        }
        for l in blocks..x.len() {
            y[l] = alpha.mul_add(x[l], y[l]);
        }
    }

    dot_tile!("avx512f,avx512vl,avx2,fma", 4);

    /// Lanes `0..n` (clamped to 16) of a `zmm` as a write mask.
    fn lane_mask(n: usize) -> __mmask16 {
        if n >= W {
            u16::MAX
        } else {
            (1u16 << n) - 1
        }
    }

    /// One [`super::gemm`] tile: `GEMM_MR` rows by two `zmm` of columns,
    /// sixteen accumulators in registers across the whole inner dimension.
    /// Each step's row of `b` loads once for all tile rows. A group live in
    /// every row runs plain fused updates; a group dead in every row is not
    /// run; a mixed group chains each row into a copy and keeps it only
    /// where the row is live (its flag is the blend mask), which is exactly
    /// the skip of the recipe.
    ///
    /// # Safety
    /// The caller must have verified AVX-512 F support; `t.b` must hold
    /// `(k - 1) * t.ldb + t.cols` values and `c` `(t.rows - 1) * ldc +
    /// t.cols`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gemm_tile(t: &Tile<'_>, c: &mut [f32], ldc: usize) {
        const V: usize = 2;
        let k = t.a.len() / GEMM_MR;
        let groups = k / 4;
        debug_assert!(k == 0 || t.b.len() >= (k - 1) * t.ldb + t.cols);
        debug_assert!(c.len() >= (t.rows - 1) * ldc + t.cols);
        let lm = [lane_mask(t.cols), lane_mask(t.cols.saturating_sub(W))];
        let (a, b) = (t.a.as_ptr(), t.b.as_ptr());
        // The second vector's address may lie past the panel when
        // `cols <= 16`; its mask is then empty and nothing is read, so the
        // address is formed with `wrapping_add`.
        let load = |p: usize| {
            let bp = b.add(p * t.ldb);
            [
                _mm512_maskz_loadu_ps(lm[0], bp),
                _mm512_maskz_loadu_ps(lm[1], bp.wrapping_add(W)),
            ]
        };
        let mut acc = [[_mm512_setzero_ps(); V]; GEMM_MR];
        for g in 0..groups {
            let live = &t.live[g * GEMM_MR..][..GEMM_MR];
            let p = 4 * g;
            if live == [u16::MAX; GEMM_MR] {
                for j in p..p + 4 {
                    let bv = load(j);
                    for (r, row) in acc.iter_mut().enumerate() {
                        let ar = _mm512_set1_ps(*a.add(j * GEMM_MR + r));
                        for (x, &bj) in row.iter_mut().zip(&bv) {
                            *x = _mm512_fmadd_ps(ar, bj, *x);
                        }
                    }
                }
            } else if live != [0; GEMM_MR] {
                let bv = [load(p), load(p + 1), load(p + 2), load(p + 3)];
                for (r, row) in acc.iter_mut().enumerate() {
                    let mut y = *row;
                    for (j, bj) in bv.iter().enumerate() {
                        let ar = _mm512_set1_ps(*a.add((p + j) * GEMM_MR + r));
                        for (x, &bjv) in y.iter_mut().zip(bj) {
                            *x = _mm512_fmadd_ps(ar, bjv, *x);
                        }
                    }
                    for (x, &yv) in row.iter_mut().zip(&y) {
                        *x = _mm512_mask_blend_ps(live[r], *x, yv);
                    }
                }
            }
        }
        for s in groups..groups + k % 4 {
            let p = s + 3 * groups;
            let bv = load(p);
            for (r, row) in acc.iter_mut().enumerate() {
                let ar = _mm512_set1_ps(*a.add(p * GEMM_MR + r));
                let kr = t.live[s * GEMM_MR + r];
                for (x, &bj) in row.iter_mut().zip(&bv) {
                    *x = _mm512_mask3_fmadd_ps(ar, bj, *x, kr);
                }
            }
        }
        for (r, row) in acc.iter().enumerate().take(t.rows) {
            for (v, &x) in row.iter().enumerate() {
                _mm512_mask_storeu_ps(c.as_mut_ptr().wrapping_add(r * ldc + v * W), lm[v], x);
            }
        }
    }

    /// Largest absolute value: 16-lane `vmaxps` over `vabsps`-stripped
    /// lanes. Exactly associative, bit-identical to the scalar fold for
    /// finite inputs.
    ///
    /// # Safety
    /// The caller must have verified AVX-512 F support (via
    /// [`super::supported`]) before calling.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn max_abs(v: &[f32]) -> f32 {
        let blocks = v.len() / W * W;
        let mut acc = _mm512_setzero_ps();
        let mut i = 0;
        while i < blocks {
            acc = _mm512_max_ps(acc, _mm512_abs_ps(_mm512_loadu_ps(v.as_ptr().add(i))));
            i += W;
        }
        let mut lanes = [0.0f32; W];
        _mm512_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut m = lanes.iter().fold(0.0f32, |m, &x| m.max(x));
        for &x in &v[blocks..] {
            m = m.max(x.abs());
        }
        m
    }

    /// Element-wise symmetric int8 quantization, 16 elements per block:
    /// `vmulps` → `vcvtps2dq` (round-to-nearest-even, same as the scalar
    /// `round_ties_even`) → i32 clamp to ±127 → `vpmovdb` narrowing
    /// (truncation is exact after the clamp). Element-independent, so
    /// bit-identical to the scalar path for finite inputs.
    ///
    /// # Safety
    /// The caller must have verified AVX-512 F support (via
    /// [`super::supported`]) before calling.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn quantize_i8(src: &[f32], inv: f32, out: &mut [i8]) {
        let blocks = src.len() / W * W;
        let vinv = _mm512_set1_ps(inv);
        let vmin = _mm512_set1_epi32(-127);
        let vmax = _mm512_set1_epi32(127);
        let mut i = 0;
        while i < blocks {
            let t = _mm512_mul_ps(_mm512_loadu_ps(src.as_ptr().add(i)), vinv);
            let r = _mm512_cvtps_epi32(t);
            let c = _mm512_min_epi32(_mm512_max_epi32(r, vmin), vmax);
            _mm_storeu_si128(out.as_mut_ptr().add(i).cast(), _mm512_cvtepi32_epi8(c));
            i += W;
        }
        for l in blocks..src.len() {
            out[l] = (src[l] * inv).round_ties_even().clamp(-127.0, 127.0) as i8;
        }
    }

    /// Integer int8 dot product: 32 int8 lanes sign-extend to one `zmm` of
    /// i16 (`vpmovsxbw`), multiply-accumulate pairwise into 16 i32 lanes
    /// (`vpmaddwd`), lanes sum at the end. Exact integer arithmetic, so the
    /// result equals the scalar loop for any input — this is the kernel the
    /// int8 ANN blocking pass rides.
    ///
    /// # Safety
    /// The caller must have verified AVX-512 F+BW support (via
    /// [`super::supported`]) before calling.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        // Two independent accumulators over a 64-byte stride keep the
        // widen→madd→add chain pipelined; integer addition is associative,
        // so the split cannot change the result.
        let pairs = a.len() / (2 * I8_BLOCK) * (2 * I8_BLOCK);
        let mut acc0 = _mm512_setzero_si512();
        let mut acc1 = _mm512_setzero_si512();
        let mut i = 0;
        while i < pairs {
            let va0 = _mm512_cvtepi8_epi16(_mm256_loadu_si256(a.as_ptr().add(i).cast()));
            let vb0 = _mm512_cvtepi8_epi16(_mm256_loadu_si256(b.as_ptr().add(i).cast()));
            let va1 =
                _mm512_cvtepi8_epi16(_mm256_loadu_si256(a.as_ptr().add(i + I8_BLOCK).cast()));
            let vb1 =
                _mm512_cvtepi8_epi16(_mm256_loadu_si256(b.as_ptr().add(i + I8_BLOCK).cast()));
            acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(va0, vb0));
            acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(va1, vb1));
            i += 2 * I8_BLOCK;
        }
        let blocks = a.len() / I8_BLOCK * I8_BLOCK;
        if i < blocks {
            let va = _mm512_cvtepi8_epi16(_mm256_loadu_si256(a.as_ptr().add(i).cast()));
            let vb = _mm512_cvtepi8_epi16(_mm256_loadu_si256(b.as_ptr().add(i).cast()));
            acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(va, vb));
        }
        let mut lanes = [0i32; 16];
        _mm512_storeu_si512(lanes.as_mut_ptr().cast(), _mm512_add_epi32(acc0, acc1));
        let mut total: i32 = lanes.iter().sum();
        for l in blocks..a.len() {
            total += a[l] as i32 * b[l] as i32;
        }
        total
    }

    /// Integer int8 squared distance: differences in i16 (range ±254, no
    /// overflow), squared and pair-summed by `vpmaddwd`. Exact integer.
    ///
    /// # Safety
    /// The caller must have verified AVX-512 F+BW support (via
    /// [`super::supported`]) before calling.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn dist_sq_i8(a: &[i8], b: &[i8]) -> i32 {
        let blocks = a.len() / I8_BLOCK * I8_BLOCK;
        let mut acc = _mm512_setzero_si512();
        let mut i = 0;
        while i < blocks {
            let va = _mm512_cvtepi8_epi16(_mm256_loadu_si256(a.as_ptr().add(i).cast()));
            let vb = _mm512_cvtepi8_epi16(_mm256_loadu_si256(b.as_ptr().add(i).cast()));
            let d = _mm512_sub_epi16(va, vb);
            acc = _mm512_add_epi32(acc, _mm512_madd_epi16(d, d));
            i += I8_BLOCK;
        }
        let mut lanes = [0i32; 16];
        _mm512_storeu_si512(lanes.as_mut_ptr().cast(), acc);
        let mut total: i32 = lanes.iter().sum();
        for l in blocks..a.len() {
            let d = a[l] as i32 - b[l] as i32;
            total += d * d;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use proptest::prelude::*;

    fn vecs(len: usize, seed: u64, scale: f32) -> (Vec<f32>, Vec<f32>) {
        let mut rng = Rng64::new(seed);
        let a = (0..len).map(|_| rng.normal() as f32 * scale).collect();
        let b = (0..len).map(|_| rng.normal() as f32 * scale).collect();
        (a, b)
    }

    /// Every kernel, every *available* implementation (AVX-512 included
    /// where the host supports it), every length 0..=40
    /// (covering all 8-lane remainders), all three magnitudes: each SIMD
    /// path must equal the scalar path bit for bit.
    #[test]
    fn every_available_impl_bit_identical_to_scalar() {
        for imp in available() {
            for len in 0..=40usize {
                for (seed, scale) in [(7, 1.0f32), (8, 1e-6), (9, 1e6)] {
                    let (a, b) = vecs(len, seed ^ len as u64, scale);
                    assert_eq!(
                        dot_with(imp, &a, &b).to_bits(),
                        dot_with(KernelImpl::Scalar, &a, &b).to_bits(),
                        "dot {} len {len}",
                        imp.name()
                    );
                    assert_eq!(
                        dist_sq_with(imp, &a, &b).to_bits(),
                        dist_sq_with(KernelImpl::Scalar, &a, &b).to_bits(),
                        "dist_sq {} len {len}",
                        imp.name()
                    );
                    assert_eq!(
                        cosine_with(imp, &a, &b).to_bits(),
                        cosine_with(KernelImpl::Scalar, &a, &b).to_bits(),
                        "cosine {} len {len}",
                        imp.name()
                    );
                    let (x, y0) = vecs(len, seed.wrapping_add(100) ^ len as u64, scale);
                    let mut y1 = y0.clone();
                    let mut y2 = y0;
                    axpy_with(imp, 0.37, &x, &mut y1);
                    axpy_with(KernelImpl::Scalar, 0.37, &x, &mut y2);
                    assert_eq!(
                        y1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        y2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "axpy {} len {len}",
                        imp.name()
                    );
                }
            }
        }
    }

    /// `rows × cols` values with ReLU-style zero four-groups and `-0.0`
    /// entries, scaled by `scale`.
    fn gemm_operand(rows: usize, cols: usize, seed: u64, scale: f32) -> Vec<f32> {
        let mut rng = Rng64::new(seed);
        let mut v: Vec<f32> = (0..rows * cols).map(|_| rng.normal() as f32 * scale).collect();
        for g in v.chunks_mut(4) {
            if rng.gen_f32() < 0.3 {
                g.fill(0.0);
            }
        }
        for x in v.iter_mut() {
            if rng.gen_f32() < 0.05 {
                *x = -0.0;
            }
        }
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tile kernels under every available implementation equal the
        /// scalar bodies bit for bit — `gemm` through both operand layouts
        /// (`matmul`'s row-major and `t_matmul`'s transposed strides) and
        /// `gemm_nt` — on shapes straddling the row tiles, column panels,
        /// four-step groups and 8-lane blocks.
        #[test]
        fn gemm_tiles_bit_identical_across_impls(
            m in 1usize..20,
            k in 0usize..42,
            n in 1usize..70,
            seed in 0u64..1_000_000,
            scale in prop::sample::select(vec![1e-6f32, 1.0, 1e6]),
        ) {
            let a = gemm_operand(m, k, seed, scale);
            let b = gemm_operand(k, n, seed ^ 1, scale);
            let bt = gemm_operand(n, k, seed ^ 2, scale);
            let at: Vec<f32> = (0..k * m).map(|i| a[(i % m) * k + i / m]).collect();
            let row_major = StridedMat { data: &a, rows: m, cols: k, row_stride: k, col_stride: 1 };
            let transposed =
                StridedMat { data: &at, rows: m, cols: k, row_stride: 1, col_stride: m };
            let run = |imp: KernelImpl| {
                let mut c = [vec![0.0; m * n], vec![0.0; m * n], vec![0.0; m * n]];
                gemm_with(imp, row_major, &b, n, &mut c[0]);
                gemm_with(imp, transposed, &b, n, &mut c[1]);
                gemm_nt_with(imp, &a, m, &bt, n, k, &mut c[2]);
                c.map(|c| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            };
            let want = run(KernelImpl::Scalar);
            prop_assert_eq!(&want[0], &want[1], "gemm layouts disagree");
            for imp in available() {
                let got = run(imp);
                prop_assert_eq!(&got[0], &want[0], "gemm {} {}x{}x{}", imp.name(), m, k, n);
                prop_assert_eq!(&got[1], &want[1], "t-gemm {} {}x{}x{}", imp.name(), m, k, n);
                prop_assert_eq!(&got[2], &want[2], "gemm_nt {} {}x{}x{}", imp.name(), m, k, n);
            }
        }
    }

    /// A dead group or tail step is skipped, not multiplied by zero: its
    /// rows of `b` hold `+inf`, so `fma(0, inf, acc)` would turn the
    /// result into NaN. Rows alternate live/dead in group 1 (the AVX-512
    /// mixed path), every row is dead in group 2 and in the tail step,
    /// and 9 rows × 40 columns leave partial row tiles and column panels.
    #[test]
    fn dead_groups_are_skipped_not_multiplied() {
        let (m, k, n) = (9, 13, 40);
        let a: Vec<f32> = (0..m * k)
            .map(|idx| {
                let (i, p) = (idx / k, idx % k);
                f32::from(p < 4 || (p < 8 && i % 2 == 1))
            })
            .collect();
        let b: Vec<f32> =
            (0..k * n).map(|idx| if idx / n < 4 { 1.0 } else { f32::INFINITY }).collect();
        let at: Vec<f32> = (0..k * m).map(|i| a[(i % m) * k + i / m]).collect();
        for imp in available() {
            for lhs in [
                StridedMat { data: &a, rows: m, cols: k, row_stride: k, col_stride: 1 },
                StridedMat { data: &at, rows: m, cols: k, row_stride: 1, col_stride: m },
            ] {
                let mut c = vec![0.0; m * n];
                gemm_with(imp, lhs, &b, n, &mut c);
                for (idx, &v) in c.iter().enumerate() {
                    let want = if (idx / n) % 2 == 1 { f32::INFINITY } else { 4.0 };
                    assert_eq!(v.to_bits(), want.to_bits(), "{} element {idx}", imp.name());
                }
            }
        }
    }

    #[test]
    fn dot3_components_match_standalone_dots() {
        for len in [0usize, 1, 7, 8, 9, 31, 300] {
            let (a, b) = vecs(len, 11 ^ len as u64, 1.0);
            let [ab, aa, bb] = scalar::dot3(&a, &b);
            assert_eq!(ab.to_bits(), scalar::dot(&a, &b).to_bits(), "ab len {len}");
            assert_eq!(aa.to_bits(), scalar::dot(&a, &a).to_bits(), "aa len {len}");
            assert_eq!(bb.to_bits(), scalar::dot(&b, &b).to_bits(), "bb len {len}");
        }
    }

    fn i8_vecs(len: usize, seed: u64) -> (Vec<i8>, Vec<i8>) {
        let mut rng = Rng64::new(seed);
        let gen = |rng: &mut Rng64| -> Vec<i8> {
            (0..len).map(|_| (rng.gen_range(255) as i32 - 127) as i8).collect()
        };
        let a = gen(&mut rng);
        let b = gen(&mut rng);
        (a, b)
    }

    /// The int8 kernels are exact integer arithmetic: every available path
    /// must equal the scalar path (and an i64 reference) on every length —
    /// 0..=70 covers remainders of the 16-wide AVX2 block and the 32-wide
    /// AVX-512 block — including the extreme ±127 corners.
    #[test]
    fn i8_kernels_exact_across_impls() {
        for imp in available() {
            for len in 0..=70usize {
                let (a, b) = i8_vecs(len, 31 ^ len as u64);
                let dot_ref: i64 = a.iter().zip(&b).map(|(&x, &y)| x as i64 * y as i64).sum();
                let dist_ref: i64 = a
                    .iter()
                    .zip(&b)
                    .map(|(&x, &y)| {
                        let d = x as i64 - y as i64;
                        d * d
                    })
                    .sum();
                assert_eq!(
                    dot_i8_with(imp, &a, &b) as i64,
                    dot_ref,
                    "dot_i8 {} len {len}",
                    imp.name()
                );
                assert_eq!(
                    dot_i8_with(imp, &a, &b),
                    dot_i8_with(KernelImpl::Scalar, &a, &b),
                    "dot_i8 dispatch {} len {len}",
                    imp.name()
                );
                assert_eq!(
                    dist_sq_i8_with(imp, &a, &b) as i64,
                    dist_ref,
                    "dist_sq_i8 {} len {len}",
                    imp.name()
                );
                assert_eq!(
                    dist_sq_i8_with(imp, &a, &b),
                    dist_sq_i8_with(KernelImpl::Scalar, &a, &b),
                    "dist_sq_i8 dispatch {} len {len}",
                    imp.name()
                );
            }
        }
        let extremes: Vec<i8> = vec![127, -127, 127, -127, 127, -127, 127, -127];
        let negated: Vec<i8> = extremes.iter().map(|&v| -v).collect();
        assert_eq!(dot_i8(&extremes, &extremes), 8 * 127 * 127);
        assert_eq!(dist_sq_i8(&extremes, &negated), 8 * 254 * 254);
    }

    #[test]
    fn cosine_i8_scales_the_exact_dot() {
        let (a, b) = i8_vecs(64, 5);
        let expected = (dot_i8(&a, &b) as f32) * (0.01f32 * 0.02f32);
        assert_eq!(cosine_i8(&a, &b, 0.01, 0.02).to_bits(), expected.to_bits());
        assert_eq!(dot_i8(&[], &[]), 0);
        assert_eq!(dist_sq_i8(&[], &[]), 0);
    }

    #[test]
    fn dot_agrees_with_f64_reference() {
        for len in [1usize, 8, 13, 64, 300] {
            let (a, b) = vecs(len, 21 ^ len as u64, 1.0);
            let reference: f64 =
                a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
            let got = dot(&a, &b) as f64;
            assert!(
                (got - reference).abs() <= 1e-4 * reference.abs().max(1.0),
                "len {len}: {got} vs {reference}"
            );
        }
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dist_sq(&[], &[]), 0.0);
        assert_eq!(cosine(&[], &[]), 0.0);
        let mut y: Vec<f32> = Vec::new();
        axpy(2.0, &[], &mut y);
        assert!(y.is_empty());
    }

    #[test]
    fn impl_names_are_stable() {
        assert_eq!(KernelImpl::Scalar.name(), "scalar");
        assert_eq!(KernelImpl::Avx2Fma.name(), "avx2_fma");
        assert_eq!(KernelImpl::Avx512.name(), "avx512");
        // active() must resolve to one of the known names.
        assert!(["scalar", "avx2_fma", "avx512"].contains(&active_name()));
    }

    /// The dispatch support probes are consistent: scalar is always
    /// supported, the availability list contains exactly the supported
    /// implementations (best first), and `detect_best` is its head.
    #[test]
    fn dispatch_probes_are_consistent() {
        assert!(supported(KernelImpl::Scalar));
        let avail = available();
        assert!(avail.contains(&KernelImpl::Scalar));
        for imp in ALL_IMPLS {
            assert_eq!(avail.contains(&imp), supported(imp), "{}", imp.name());
        }
        assert_eq!(detect_best(), avail[0]);
    }
}
