//! The fused, zero-allocation DPP M-step engine.
//!
//! The diversified M-step (Algorithm 1 of the paper) evaluates
//! `log det K̃_A` and its gradient dozens of times per EM iteration. The
//! scalar reference paths in [`crate::kernel`] and [`crate::gradient`] do
//! this the way the equations read: `O(k²·d)` calls to `powf` to build the
//! kernel matrix, a fresh decomposition for the log-determinant, a *second*
//! decomposition (an LU inverse — of an SPD matrix) for the gradient, and a
//! triple loop with another `O(k²·d)` `powf` storm for the gradient entries.
//!
//! [`DppObjective`] restructures the same computation around three ideas:
//!
//! 1. **Power-matrix factoring** — the elementwise powers `P = A^ρ` are
//!    computed once per iterate (a `sqrt` fast path serves the paper's
//!    `ρ = 0.5`), after which the unnormalized kernel is the GEMM
//!    `S = P·Pᵀ` and the gradient's inner sum over states is a second GEMM
//!    plus elementwise fix-ups — no `powf` appears in any `O(k²·d)` loop.
//! 2. **One factorization, two uses** — the normalized kernel `K̃` is
//!    Cholesky-factored once; the log-determinant is read off the factor's
//!    diagonal and the inverse needed by the gradient comes from triangular
//!    solves against the same factor.
//! 3. **Zero allocation** — every intermediate lives in a grow-on-reshape
//!    [`MStepWorkspace`] (the M-step sibling of `dhmm_hmm`'s
//!    `InferenceWorkspace`), so repeated evaluations across backtracks,
//!    ascent iterations and EM iterations never touch the allocator.
//!
//! Two refinements ride on top of the fused structure:
//!
//! * **Parallel per-row evaluation** — the Gram matrix `S = P·Pᵀ`, the
//!   inverse's per-row triangular solves, the gradient GEMM `V·P` and the
//!   final elementwise pass are all row-independent, so the engine splits
//!   them across `dhmm_runtime`'s worker pool when an [`Executor`] with more
//!   than one worker is attached (serial below a size threshold, and by
//!   default). Every parallel section is bit-deterministic across worker
//!   counts. Under `dhmm_hmm::BaumWelch::fit_with_updater` with more than
//!   one worker, though, the transition update is itself one job of the
//!   M-step's pool join (next to the emission update), and a dispatch from
//!   inside a pool job runs inline. So in EM training these sections run
//!   serially on that worker, and the speed comes from the register-tiled
//!   kernels of `dhmm_linalg` alone.
//! * **Accept→gradient factorization caching** — a successful interior
//!   value evaluation leaves its power matrix, Gram matrix and Cholesky
//!   factor resident in the workspace, fingerprinted by the exact iterate
//!   and kernel exponent. The projected-gradient ascent always evaluates the
//!   accepted candidate's value last and its gradient next, so that
//!   gradient starts from the cached factor — one `O(k³)` factorization and
//!   one `O(k²·d)` GEMM saved per ascent iteration.
//!
//! The engine reproduces the reference semantics exactly, including their
//! different boundary clamps: the value path clamps matrix entries at zero
//! (as [`ProductKernel::kernel_matrix`] does) while the gradient path floors
//! them at the gradient's `ENTRY_FLOOR` (as
//! [`crate::gradient::grad_log_det_kernel`] does). Away from the simplex
//! boundary the two clamps coincide and value + gradient share one power
//! matrix, one GEMM and one factorization. In the numerically degenerate
//! regime — a kernel matrix that is not positive definite without jitter —
//! the gradient falls back to the scalar reference path wholesale, so the
//! two engines agree there by construction (the fallback is the only place
//! the engine may allocate).

use crate::error::DppError;
use crate::gradient::{grad_log_det_kernel, ENTRY_FLOOR};
use crate::kernel::ProductKernel;
use crate::logdet::{log_det_floor, log_det_psd_prefactored_after_plain};
use dhmm_linalg::{factor_into, log_det_from_factor, spd_inverse_rows_from_factor, Matrix};
use dhmm_runtime::{Executor, Parallelism};

/// Minimum multiply–add count before a GEMM (or the triangular-solve
/// inverse) inside the engine is dispatched to the worker pool; below this,
/// dispatch overhead exceeds the arithmetic and the section runs serially.
const PAR_MIN_GEMM_FLOPS: usize = 32_768;
/// Minimum entry count before the gradient's final elementwise pass is
/// dispatched to the worker pool.
const PAR_MIN_ELEMS: usize = 4_096;

/// Grow-on-reshape scratch buffers for the fused M-step engine.
///
/// One workspace serves one ascent; buffers are (re)sized the first time a
/// `(k, d)` shape is seen and then reused allocation-free for every
/// evaluation at that shape — across backtracks, ascent iterations and EM
/// iterations. A shape change (growing *or* shrinking `k`/`d`) resizes the
/// affected buffers once and is equally safe; the oracle-equivalence
/// property suite exercises exactly that reuse pattern.
#[derive(Debug, Clone)]
pub struct MStepWorkspace {
    /// `k × d` elementwise powers `P = A^ρ` (zero-clamped for the value
    /// path, floored in place for the gradient path).
    p: Matrix,
    /// `k × k` unnormalized kernel `S = P·Pᵀ`.
    s: Matrix,
    /// `k × k` normalized kernel `K̃`.
    kt: Matrix,
    /// `k × k` lower-triangular Cholesky factor of `K̃`.
    l: Matrix,
    /// `k × k` inverse of `K̃`, column-scaled in place into `V = K̃⁻¹·diag(u)`.
    inv: Matrix,
    /// `k × d` gradient GEMM `G = V·P`.
    g: Matrix,
    /// Length-`k` floored self-similarities `max(S_ii, ENTRY_FLOOR)`.
    selfsim: Vec<f64>,
    /// Length-`k` inverse-sqrt self-similarities `u_i = 1/√selfsim_i`.
    u: Vec<f64>,
    /// Length-`k` diagonal-correction coefficients `c_i = Σ_{n≠i} V_in·S_in`.
    c: Vec<f64>,
    /// The iterate of the last cache-setting value evaluation (the
    /// accept→gradient factorization cache; see [`DppObjective::grad_with`]).
    cached_a: Matrix,
    /// Kernel exponent the cached factorization was computed under — part of
    /// the cache key, since one workspace may serve engines with different
    /// kernels.
    cached_rho: f64,
    /// `log det K̃` of the cached iterate.
    cached_ld: f64,
    /// Whether `p`/`s`/`l` currently hold a valid interior factorization of
    /// `cached_a` under `cached_rho`.
    cache_valid: bool,
}

impl MStepWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Active `(k, d)` shape of the last evaluation.
    pub fn shape(&self) -> (usize, usize) {
        self.p.shape()
    }

    /// Sizes every buffer for a `k × d` problem; a no-op when the shape is
    /// unchanged (the steady state of an EM run).
    fn ensure(&mut self, k: usize, d: usize) {
        if self.p.shape() != (k, d) {
            self.p = Matrix::zeros(k, d);
            self.g = Matrix::zeros(k, d);
            self.cache_valid = false;
        }
        if self.s.shape() != (k, k) {
            self.s = Matrix::zeros(k, k);
            self.kt = Matrix::zeros(k, k);
            self.l = Matrix::zeros(k, k);
            self.inv = Matrix::zeros(k, k);
            self.selfsim = vec![0.0; k];
            self.u = vec![0.0; k];
            self.c = vec![0.0; k];
            self.cache_valid = false;
        }
    }

    /// Records that `p`/`s`/`l` hold the interior factorization of `a` under
    /// exponent `rho`, with value `ld`.
    fn remember(&mut self, a: &Matrix, rho: f64, ld: f64) {
        if self.cached_a.shape() != a.shape() {
            self.cached_a = a.clone();
        } else {
            self.cached_a
                .copy_from(a)
                .expect("cache shape checked above");
        }
        self.cached_rho = rho;
        self.cached_ld = ld;
        self.cache_valid = true;
    }

    /// Whether the resident factorization belongs to exactly this iterate
    /// and exponent. The fingerprint is an exact entrywise comparison —
    /// `O(k·d)`, negligible against the `O(k³)` factorization it saves, and
    /// immune to the false positives a hash would admit.
    fn cache_hit(&self, a: &Matrix, rho: f64) -> bool {
        self.cache_valid && self.cached_rho == rho && self.cached_a == *a
    }
}

impl Default for MStepWorkspace {
    fn default() -> Self {
        Self {
            p: Matrix::zeros(0, 0),
            s: Matrix::zeros(0, 0),
            kt: Matrix::zeros(0, 0),
            l: Matrix::zeros(0, 0),
            inv: Matrix::zeros(0, 0),
            g: Matrix::zeros(0, 0),
            selfsim: Vec::new(),
            u: Vec::new(),
            c: Vec::new(),
            cached_a: Matrix::zeros(0, 0),
            cached_rho: f64::NAN,
            cached_ld: f64::NAN,
            cache_valid: false,
        }
    }
}

/// The fused evaluator of the DPP prior `log det K̃_A` and its gradient.
///
/// Carries an [`Executor`] (serial by default) through which its GEMMs, the
/// triangular-solve inverse and the gradient's final elementwise pass are
/// split per output row across the worker pool. All parallel sections are
/// bit-deterministic across worker counts, so the executor choice affects
/// wall-clock time only, never results.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DppObjective {
    kernel: ProductKernel,
    exec: Executor,
}

impl DppObjective {
    /// Creates an engine for the given product kernel, running serially.
    pub fn new(kernel: ProductKernel) -> Self {
        Self {
            kernel,
            exec: Executor::serial(),
        }
    }

    /// Returns the engine dispatching through the given executor.
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// Returns the engine with an executor resolved from `parallelism`.
    pub fn with_parallelism(self, parallelism: Parallelism) -> Self {
        self.with_executor(Executor::new(parallelism))
    }

    /// The kernel defining `K̃_A`.
    pub fn kernel(&self) -> &ProductKernel {
        &self.kernel
    }

    /// The executor the engine's parallel sections dispatch through.
    pub fn executor(&self) -> Executor {
        self.exec
    }

    /// The executor for a `flops`-sized GEMM/solve section (serial when too
    /// small to amortize dispatch).
    fn gemm_exec(&self, flops: usize) -> Executor {
        self.exec.unless_smaller_than(flops, PAR_MIN_GEMM_FLOPS)
    }

    /// `log det K̃_A`, equivalent to
    /// [`crate::log_det_kernel`]`(a, kernel)` but allocation-free.
    ///
    /// On an interior, positive-definite iterate the factorization this
    /// computes is left resident in the workspace keyed by the iterate, so a
    /// following [`Self::grad_with`] at the same iterate — the ascent's
    /// accept→gradient pattern — skips its own `O(k³)` factorization.
    pub fn log_det_with(&self, a: &Matrix, ws: &mut MStepWorkspace) -> Result<f64, DppError> {
        validate(a, "kernel matrix requires a non-empty input matrix")?;
        let (k, d) = a.shape();
        ws.ensure(k, d);
        let rho = self.kernel.rho();
        if ws.cache_hit(a, rho) {
            return Ok(ws.cached_ld);
        }
        ws.cache_valid = false;
        let boundary = fill_power(a, rho, 0.0, &mut ws.p);
        ws.p.gram_into_on(&mut ws.s, &self.gemm_exec(k * k * d))?;
        normalize_value_kernel(&ws.s, &mut ws.kt);
        // Attempt the plain (jitter-0) factorization here — the same first
        // rung the robust ladder would try — so a success on an interior
        // iterate can be cached for the gradient that typically follows,
        // and a failure is never re-attempted by the fall-through.
        let interior = !boundary && (0..k).all(|i| ws.s[(i, i)] >= ENTRY_FLOOR);
        let plain = factor_into(&ws.kt, 0.0, &mut ws.l).is_ok();
        if plain {
            let ld = log_det_from_factor(&ws.l);
            if ld.is_finite() {
                let value = ld.max(log_det_floor());
                if interior {
                    ws.remember(a, rho, value);
                }
                return Ok(value);
            }
        }
        log_det_psd_prefactored_after_plain(&ws.kt, &mut ws.l, plain)
    }

    /// `∇_A log det K̃_A` written into `out`, equivalent to
    /// [`grad_log_det_kernel`]`(a, kernel)` but allocation-free on the fast
    /// path. When the normalized kernel is not positive definite without
    /// jitter (rows collapsed onto each other), the computation is delegated
    /// to the scalar reference path so the two agree in the degenerate
    /// regime by construction.
    ///
    /// When the workspace still holds the factorization of exactly this
    /// iterate from a preceding [`Self::log_det_with`] (the line search's
    /// accepted candidate becoming the gradient point), the power matrix,
    /// Gram matrix and Cholesky factor are reused — saving one `O(k²·d)`
    /// GEMM and one `O(k³)` factorization per ascent iteration. Interior
    /// iterates make the value-path and gradient-path clamps coincide, so
    /// the reuse is exact in the same sense as
    /// [`Self::log_det_and_grad_with`]'s shared factorization.
    pub fn grad_with(
        &self,
        a: &Matrix,
        ws: &mut MStepWorkspace,
        out: &mut Matrix,
    ) -> Result<(), DppError> {
        validate(a, "gradient requires a non-empty matrix")?;
        check_out_shape(a, out)?;
        ws.ensure(a.rows(), a.cols());
        if ws.cache_hit(a, self.kernel.rho()) {
            // `grad_from_factored` reads but never writes `p`/`s`/`l`, so
            // the cache stays valid for further same-iterate calls.
            return self.grad_from_factored(a, ws, out);
        }
        ws.cache_valid = false;
        fill_power(a, self.kernel.rho(), ENTRY_FLOOR, &mut ws.p);
        self.grad_from_power(a, ws, out)
    }

    /// Fused value + gradient at the same iterate: one power matrix, one
    /// GEMM and one Cholesky factorization serve both results whenever the
    /// iterate is interior (no entry below the gradient's `ENTRY_FLOOR`) and
    /// the kernel matrix is positive definite. Returns `log det K̃_A` and
    /// writes the gradient into `out`.
    pub fn log_det_and_grad_with(
        &self,
        a: &Matrix,
        ws: &mut MStepWorkspace,
        out: &mut Matrix,
    ) -> Result<f64, DppError> {
        validate(a, "kernel matrix requires a non-empty input matrix")?;
        check_out_shape(a, out)?;
        let (k, d) = a.shape();
        ws.ensure(k, d);
        let rho = self.kernel.rho();
        if ws.cache_hit(a, rho) {
            let value = ws.cached_ld;
            self.grad_from_factored(a, ws, out)?;
            return Ok(value);
        }
        ws.cache_valid = false;
        let boundary = fill_power(a, rho, 0.0, &mut ws.p);
        ws.p.gram_into_on(&mut ws.s, &self.gemm_exec(k * k * d))?;
        normalize_value_kernel(&ws.s, &mut ws.kt);

        let interior = !boundary && (0..k).all(|i| ws.s[(i, i)] >= ENTRY_FLOOR);
        let plain = factor_into(&ws.kt, 0.0, &mut ws.l).is_ok();
        if interior && plain {
            let ld = log_det_from_factor(&ws.l);
            if ld.is_finite() {
                // The factorization of K̃ is already in `l` and the powers in
                // `p` double as the gradient's floored powers: read the
                // gradient straight off the same factor.
                let value = ld.max(log_det_floor());
                self.grad_from_factored(a, ws, out)?;
                ws.remember(a, rho, value);
                return Ok(value);
            }
        }

        // Boundary or degenerate iterate: evaluate the value with the
        // zero-clamped kernel semantics (resuming the ladder after the
        // already-attempted plain rung), then rebuild the floored power
        // matrix in place (`P_f = max(P, floor^ρ)`) for the gradient.
        let ld = log_det_psd_prefactored_after_plain(&ws.kt, &mut ws.l, plain)?;
        let floor_pow = power_floor(rho);
        for e in ws.p.as_mut_slice() {
            *e = e.max(floor_pow);
        }
        self.grad_from_power(a, ws, out)?;
        Ok(ld)
    }

    /// Gradient from an already-filled floored power matrix `ws.p`:
    /// `S = P·Pᵀ`, normalize (lower triangle), factor, and read the gradient
    /// off the factor. Leaves the upper triangle of `ws.kt` stale; the value
    /// paths rebuild all of it before they read it.
    fn grad_from_power(
        &self,
        a: &Matrix,
        ws: &mut MStepWorkspace,
        out: &mut Matrix,
    ) -> Result<(), DppError> {
        let d = a.cols();
        let k = ws.s.rows();
        ws.p.gram_into_on(&mut ws.s, &self.gemm_exec(k * k * d))?;
        for i in 0..k {
            ws.selfsim[i] = ws.s[(i, i)].max(ENTRY_FLOOR);
        }
        // The lower triangle only: `factor_into` reads nothing above the
        // diagonal, and the fallback below never reads `kt`.
        for i in 0..k {
            for j in 0..=i {
                ws.kt[(i, j)] = ws.s[(i, j)] / (ws.selfsim[i] * ws.selfsim[j]).sqrt();
            }
        }
        if factor_into(&ws.kt, 0.0, &mut ws.l).is_err() {
            // Collapsed/indefinite regime: defer to the scalar reference so
            // the ridge-and-retry semantics match it exactly.
            let reference = grad_log_det_kernel(a, &self.kernel)?;
            out.copy_from(&reference)?;
            return Ok(());
        }
        self.grad_from_factored(a, ws, out)
    }

    /// Gradient read-out given `ws.p` (floored powers), `ws.s` (their Gram
    /// matrix) and `ws.l` (Cholesky factor of the normalized kernel).
    ///
    /// With `W = K̃⁻¹`, `u_i = 1/√S_ii` and `V = W·diag(u)`, the reference
    /// triple loop collapses to
    /// `∂/∂A_ij = 2ρ·u_i·[A_ij^{ρ−1}·((V·P)_ij − V_ii·P_ij)
    ///                    − A_ij^{2ρ−1}·c_i/S_ii]`
    /// with `c_i = Σ_{n≠i} V_in·S_in`; the `(V·P)` term is a GEMM and the
    /// elementwise powers reuse `P` (`A^{ρ−1} = P/A`, `A^{2ρ−1} = P²/A`).
    /// The inverse (per-row solves), the GEMM (per output row) and the
    /// final elementwise pass (per gradient row) are all row-independent and
    /// dispatch through the engine's executor when large enough.
    ///
    /// Reads but never writes `ws.p`/`ws.s`/`ws.l`, which is what lets the
    /// accept→gradient cache survive this call.
    fn grad_from_factored(
        &self,
        a: &Matrix,
        ws: &mut MStepWorkspace,
        out: &mut Matrix,
    ) -> Result<(), DppError> {
        let (k, d) = a.shape();
        for i in 0..k {
            ws.selfsim[i] = ws.s[(i, i)].max(ENTRY_FLOOR);
            ws.u[i] = 1.0 / ws.selfsim[i].sqrt();
        }
        spd_inverse_rows_from_factor(&ws.l, &mut ws.inv, &self.gemm_exec(k * k * k))?;
        // Column-scale the inverse in place: V = K̃⁻¹·diag(u).
        for i in 0..k {
            for n in 0..k {
                ws.inv[(i, n)] *= ws.u[n];
            }
        }
        for i in 0..k {
            let mut total = 0.0;
            for n in 0..k {
                total += ws.inv[(i, n)] * ws.s[(i, n)];
            }
            ws.c[i] = total - ws.inv[(i, i)] * ws.s[(i, i)];
        }
        ws.inv
            .matmul_into_on(&ws.p, &mut ws.g, &self.gemm_exec(k * k * d))?;
        let rho = self.kernel.rho();
        let (p, g, u, inv, c, selfsim) = (&ws.p, &ws.g, &ws.u, &ws.inv, &ws.c, &ws.selfsim);
        self.exec
            .unless_smaller_than(k * d, PAR_MIN_ELEMS)
            .for_each_band(out.as_mut_slice(), d, |rows, band| {
                for (local, i) in rows.enumerate() {
                    let coef = 2.0 * rho * u[i];
                    let sii = selfsim[i];
                    let vii = inv[(i, i)];
                    let ci = c[i];
                    let a_row = a.row(i);
                    let p_row = p.row(i);
                    let g_row = g.row(i);
                    let out_row = &mut band[local * d..(local + 1) * d];
                    for j in 0..d {
                        let a_safe = a_row[j].max(ENTRY_FLOOR);
                        let pf = p_row[j];
                        let pow_rm1 = pf / a_safe;
                        let pow_2rm1 = pf * pf / a_safe;
                        out_row[j] = coef * (pow_rm1 * (g_row[j] - vii * pf) - pow_2rm1 * ci / sii);
                    }
                }
            });
        Ok(())
    }
}

/// Shared input validation mirroring the scalar reference paths.
fn validate(a: &Matrix, empty_reason: &str) -> Result<(), DppError> {
    if a.rows() == 0 || a.cols() == 0 {
        return Err(DppError::InvalidInput {
            reason: empty_reason.into(),
        });
    }
    if !a.is_finite() {
        return Err(DppError::InvalidInput {
            reason: "matrix contains non-finite entries".into(),
        });
    }
    Ok(())
}

fn check_out_shape(a: &Matrix, out: &Matrix) -> Result<(), DppError> {
    if out.shape() != a.shape() {
        return Err(DppError::InvalidInput {
            reason: format!(
                "gradient output has shape {:?}, expected {:?}",
                out.shape(),
                a.shape()
            ),
        });
    }
    Ok(())
}

/// Fills `p` with `max(a, clamp)^ρ` (the *only* elementwise-power pass of an
/// evaluation), dispatching `ρ = 0.5` to `sqrt` and `ρ = 1` to a plain copy.
/// Returns whether any raw entry lies below the gradient's `ENTRY_FLOOR`
/// (the boundary/interior test for clamp sharing).
fn fill_power(a: &Matrix, rho: f64, clamp: f64, p: &mut Matrix) -> bool {
    let mut boundary = false;
    let src = a.as_slice();
    let dst = p.as_mut_slice();
    if rho == 0.5 {
        for (d, &v) in dst.iter_mut().zip(src) {
            boundary |= v < ENTRY_FLOOR;
            *d = v.max(clamp).sqrt();
        }
    } else if rho == 1.0 {
        for (d, &v) in dst.iter_mut().zip(src) {
            boundary |= v < ENTRY_FLOOR;
            *d = v.max(clamp);
        }
    } else {
        for (d, &v) in dst.iter_mut().zip(src) {
            boundary |= v < ENTRY_FLOOR;
            *d = v.max(clamp).powf(rho);
        }
    }
    boundary
}

/// `ENTRY_FLOOR^ρ` through the same fast paths as [`fill_power`], so the
/// in-place floor upgrade `P_f = max(P, floor^ρ)` is consistent with a
/// direct floored fill.
fn power_floor(rho: f64) -> f64 {
    if rho == 0.5 {
        ENTRY_FLOOR.sqrt()
    } else if rho == 1.0 {
        ENTRY_FLOOR
    } else {
        ENTRY_FLOOR.powf(rho)
    }
}

/// Normalized kernel with the value-path semantics of
/// [`ProductKernel::kernel_matrix`]: exactly-unit diagonal, zero similarity
/// when either raw self-similarity vanishes, symmetric by construction.
fn normalize_value_kernel(s: &Matrix, kt: &mut Matrix) {
    let k = s.rows();
    for i in 0..k {
        kt[(i, i)] = 1.0;
        for j in (i + 1)..k {
            let denom = (s[(i, i)] * s[(j, j)]).sqrt();
            let v = if denom > 0.0 { s[(i, j)] / denom } else { 0.0 };
            kt[(i, j)] = v;
            kt[(j, i)] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::numerical_grad_log_det;
    use crate::logdet::log_det_kernel;

    fn example() -> Matrix {
        Matrix::from_rows(&[
            vec![0.6, 0.3, 0.1],
            vec![0.2, 0.5, 0.3],
            vec![0.25, 0.25, 0.5],
        ])
        .unwrap()
    }

    fn rel_close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() / a.abs().max(b.abs()).max(1.0) < tol
    }

    #[test]
    fn fused_value_matches_reference() {
        let mut ws = MStepWorkspace::new();
        for rho in [0.5, 1.0, 1.7] {
            let kernel = ProductKernel::new(rho).unwrap();
            let engine = DppObjective::new(kernel);
            let a = example();
            let fused = engine.log_det_with(&a, &mut ws).unwrap();
            let reference = log_det_kernel(&a, &kernel).unwrap();
            assert!(
                rel_close(fused, reference, 1e-12),
                "rho {rho}: fused {fused} vs reference {reference}"
            );
        }
    }

    #[test]
    fn fused_gradient_matches_reference_and_finite_differences() {
        let mut ws = MStepWorkspace::new();
        for rho in [0.5, 1.0, 1.7] {
            let kernel = ProductKernel::new(rho).unwrap();
            let engine = DppObjective::new(kernel);
            let a = example();
            let mut fused = Matrix::zeros(3, 3);
            engine.grad_with(&a, &mut ws, &mut fused).unwrap();
            let reference = grad_log_det_kernel(&a, &kernel).unwrap();
            for i in 0..3 {
                for j in 0..3 {
                    assert!(
                        rel_close(fused[(i, j)], reference[(i, j)], 1e-10),
                        "rho {rho} ({i},{j}): fused {} vs reference {}",
                        fused[(i, j)],
                        reference[(i, j)]
                    );
                }
            }
            let numeric = numerical_grad_log_det(&a, &kernel, 1e-6).unwrap();
            for i in 0..3 {
                for j in 0..3 {
                    let diff = (fused[(i, j)] - numeric[(i, j)]).abs();
                    assert!(diff / numeric[(i, j)].abs().max(1.0) < 1e-3);
                }
            }
        }
    }

    #[test]
    fn combined_call_matches_separate_calls() {
        let engine = DppObjective::new(ProductKernel::bhattacharyya());
        let mut ws = MStepWorkspace::new();
        let a = example();
        let mut grad_sep = Matrix::zeros(3, 3);
        let value_sep = engine.log_det_with(&a, &mut ws).unwrap();
        engine.grad_with(&a, &mut ws, &mut grad_sep).unwrap();
        let mut grad_comb = Matrix::zeros(3, 3);
        let value_comb = engine
            .log_det_and_grad_with(&a, &mut ws, &mut grad_comb)
            .unwrap();
        assert_eq!(value_sep, value_comb);
        assert!(grad_comb.approx_eq(&grad_sep, 1e-12));
    }

    #[test]
    fn boundary_matrix_matches_both_reference_clamps() {
        // Exact zeros: the value path clamps at 0 while the gradient path
        // floors at ENTRY_FLOOR — the engine must reproduce both.
        let kernel = ProductKernel::bhattacharyya();
        let engine = DppObjective::new(kernel);
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.4, 0.3, 0.3],
        ])
        .unwrap();
        let mut ws = MStepWorkspace::new();
        let mut grad = Matrix::zeros(3, 3);
        let value = engine
            .log_det_and_grad_with(&a, &mut ws, &mut grad)
            .unwrap();
        let value_ref = log_det_kernel(&a, &kernel).unwrap();
        let grad_ref = grad_log_det_kernel(&a, &kernel).unwrap();
        assert!(rel_close(value, value_ref, 1e-9), "{value} vs {value_ref}");
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    rel_close(grad[(i, j)], grad_ref[(i, j)], 1e-9),
                    "({i},{j}): {} vs {}",
                    grad[(i, j)],
                    grad_ref[(i, j)]
                );
            }
        }
    }

    #[test]
    fn collapsed_matrix_falls_back_to_reference_gradient() {
        let kernel = ProductKernel::bhattacharyya();
        let engine = DppObjective::new(kernel);
        let a = Matrix::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5]]).unwrap();
        let mut ws = MStepWorkspace::new();
        let mut grad = Matrix::zeros(2, 2);
        engine.grad_with(&a, &mut ws, &mut grad).unwrap();
        let reference = grad_log_det_kernel(&a, &kernel).unwrap();
        assert!(grad.approx_eq(&reference, 0.0), "fallback must be exact");
        // The value agrees with the jittered reference too.
        let v = engine.log_det_with(&a, &mut ws).unwrap();
        let v_ref = log_det_kernel(&a, &kernel).unwrap();
        assert_eq!(v, v_ref);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let engine = DppObjective::new(ProductKernel::bhattacharyya());
        let mut ws = MStepWorkspace::new();
        let mut out = Matrix::zeros(2, 2);
        assert!(engine.log_det_with(&Matrix::zeros(0, 0), &mut ws).is_err());
        let mut bad = Matrix::filled(2, 2, 0.5);
        bad[(0, 1)] = f64::NAN;
        assert!(engine.log_det_with(&bad, &mut ws).is_err());
        assert!(engine.grad_with(&bad, &mut ws, &mut out).is_err());
        // Mis-shaped gradient output is rejected rather than resized.
        let a = Matrix::filled(3, 3, 1.0 / 3.0);
        assert!(engine.grad_with(&a, &mut ws, &mut out).is_err());
        assert!(engine.log_det_and_grad_with(&a, &mut ws, &mut out).is_err());
    }

    #[test]
    fn parallel_engine_is_bit_identical_to_serial() {
        // Large enough that every parallel section clears its size gate.
        let k = 70;
        let mut a = Matrix::from_fn(k, k, |i, j| ((i * 13 + j * 7) % 29 + 1) as f64);
        a.normalize_rows();
        let kernel = ProductKernel::bhattacharyya();
        let serial = DppObjective::new(kernel);
        let mut ws_s = MStepWorkspace::new();
        let mut grad_s = Matrix::zeros(k, k);
        let value_s = serial
            .log_det_and_grad_with(&a, &mut ws_s, &mut grad_s)
            .unwrap();
        for workers in [2usize, 4, 16] {
            let parallel = DppObjective::new(kernel)
                .with_executor(dhmm_runtime::Executor::from_workers(workers));
            let mut ws_p = MStepWorkspace::new();
            let mut grad_p = Matrix::zeros(k, k);
            let value_p = parallel
                .log_det_and_grad_with(&a, &mut ws_p, &mut grad_p)
                .unwrap();
            assert_eq!(value_s, value_p, "workers={workers}");
            assert!(grad_p.approx_eq(&grad_s, 0.0), "workers={workers}");
            // The standalone calls agree bit for bit too.
            let mut grad_sep = Matrix::zeros(k, k);
            assert_eq!(
                parallel.log_det_with(&a, &mut ws_p).unwrap(),
                serial.log_det_with(&a, &mut ws_s).unwrap()
            );
            parallel.grad_with(&a, &mut ws_p, &mut grad_sep).unwrap();
            let mut grad_sep_serial = Matrix::zeros(k, k);
            serial
                .grad_with(&a, &mut ws_s, &mut grad_sep_serial)
                .unwrap();
            assert!(grad_sep.approx_eq(&grad_sep_serial, 0.0));
        }
    }

    #[test]
    fn accept_then_gradient_cache_matches_the_combined_call() {
        let kernel = ProductKernel::bhattacharyya();
        let engine = DppObjective::new(kernel);
        let a = example();
        // Combined call: the factorization is shared by construction.
        let mut ws_comb = MStepWorkspace::new();
        let mut grad_comb = Matrix::zeros(3, 3);
        let value_comb = engine
            .log_det_and_grad_with(&a, &mut ws_comb, &mut grad_comb)
            .unwrap();
        // Value then gradient: the cache must reproduce the combined path
        // exactly (same factor, same read-out).
        let mut ws = MStepWorkspace::new();
        let value = engine.log_det_with(&a, &mut ws).unwrap();
        let mut grad = Matrix::zeros(3, 3);
        engine.grad_with(&a, &mut ws, &mut grad).unwrap();
        assert_eq!(value, value_comb);
        assert!(grad.approx_eq(&grad_comb, 0.0));
        // Repeated same-iterate calls keep hitting the cache.
        assert_eq!(engine.log_det_with(&a, &mut ws).unwrap(), value);
        let mut grad2 = Matrix::zeros(3, 3);
        engine.grad_with(&a, &mut ws, &mut grad2).unwrap();
        assert!(grad2.approx_eq(&grad, 0.0));
    }

    #[test]
    fn cache_is_keyed_by_iterate_and_exponent() {
        let a = example();
        let mut ws = MStepWorkspace::new();
        // Prime the cache under rho = 0.5.
        let engine_half = DppObjective::new(ProductKernel::new(0.5).unwrap());
        engine_half.log_det_with(&a, &mut ws).unwrap();
        // A different exponent on the same workspace must not reuse it.
        let engine_one = DppObjective::new(ProductKernel::new(1.0).unwrap());
        let mut grad = Matrix::zeros(3, 3);
        engine_one.grad_with(&a, &mut ws, &mut grad).unwrap();
        let reference = grad_log_det_kernel(&a, &ProductKernel::new(1.0).unwrap()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    rel_close(grad[(i, j)], reference[(i, j)], 1e-10),
                    "({i},{j}): {} vs {}",
                    grad[(i, j)],
                    reference[(i, j)]
                );
            }
        }
        // A different iterate of the same shape must not reuse it either.
        engine_half.log_det_with(&a, &mut ws).unwrap();
        let mut other = a.clone();
        other[(0, 0)] += 1e-9;
        other.normalize_rows();
        let mut grad_other = Matrix::zeros(3, 3);
        engine_half
            .grad_with(&other, &mut ws, &mut grad_other)
            .unwrap();
        let mut fresh = MStepWorkspace::new();
        let mut grad_fresh = Matrix::zeros(3, 3);
        engine_half
            .grad_with(&other, &mut fresh, &mut grad_fresh)
            .unwrap();
        assert!(grad_other.approx_eq(&grad_fresh, 0.0));
    }

    #[test]
    fn workspace_reuse_across_shapes_is_safe() {
        let kernel = ProductKernel::bhattacharyya();
        let engine = DppObjective::new(kernel);
        let mut ws = MStepWorkspace::new();
        for k in [4usize, 2, 5, 3] {
            let a = Matrix::from_fn(k, k + 1, |i, j| ((i * 7 + j * 3) % 5 + 1) as f64);
            let mut a = a;
            a.normalize_rows();
            let fused = engine.log_det_with(&a, &mut ws).unwrap();
            let reference = log_det_kernel(&a, &kernel).unwrap();
            assert!(rel_close(fused, reference, 1e-12), "k={k}");
            assert_eq!(ws.shape(), (k, k + 1));
            let mut grad = Matrix::zeros(k, k + 1);
            engine.grad_with(&a, &mut ws, &mut grad).unwrap();
            let grad_ref = grad_log_det_kernel(&a, &kernel).unwrap();
            for i in 0..k {
                for j in 0..k + 1 {
                    assert!(rel_close(grad[(i, j)], grad_ref[(i, j)], 1e-10));
                }
            }
        }
    }
}
