// Blocked, SIMD-friendly dense and CSR kernels — the worker-side hot
// path behind Matrix::matvec_into / matmat_into, CsrMatrix, and
// EncodedPartition::{matvec,matmat}_rows.
//
// The contract that makes these drop-in under the fingerprint goldens:
// every kernel preserves the naive loops' PER-OUTPUT-ELEMENT accumulation
// order. Each output element is still one scalar chain
//   acc = 0; for c ascending: acc += a[r,c] * x[c,j]
// (CSR rows accumulate in CSR storage order). Tiling only interleaves
// *different* elements' chains — 4 output rows at once for matvec
// (independent accumulators break the add-latency dependence chain the
// naive kernel serializes on), 2 rows x 8 RHS columns for matmat (one
// pass over the row instead of `width`; the column tile is contiguous in
// the panel, and under GCC/Clang its 16 chains are 8 explicit two-lane
// vector accumulators, so they stay in registers). The build pins
// -ffp-contract=off, so no multiply-add is fused into an FMA on any
// target ISA, and gcc does not reassociate FP sums without -ffast-math:
// the results are bitwise identical to the naive reference —
// tests/kernel_equivalence_test.cpp holds every kernel to EXPECT_EQ on
// doubles. Because the chains are per element, one call over a run of
// rows [r0, r1) also equals any split of it into smaller calls (the
// engine computes a worker's whole chunk range in one call).
//
// Optional OpenMP (cmake -DS2C2_OPENMP=ON) parallelizes over *output
// rows* only, so per-element chains — and therefore results — are
// byte-identical at any thread count. Tiling parameters and the
// measured effect: docs/PERFORMANCE.md.
//
// The pool overloads below are the deterministic intra-round parallel
// path (no OpenMP dependency): output rows are split into contiguous,
// tile-aligned, NON-OVERLAPPING blocks, one per participating thread of
// the caller-supplied util::ThreadPool (help-first member parallel_for,
// so they are safe to call from inside a pool task). Because every
// output element's accumulation chain is untouched by the split, the
// parallel results are bitwise identical to the serial kernels at any
// thread count — the same invariant the OpenMP path relies on, pinned by
// tests/kernel_equivalence_test.cpp's serial≡parallel EXPECT_EQ sweeps.
// A null pool (or work below kPoolMinWork) runs the serial kernel.
#pragma once

#include <cstddef>

namespace s2c2::util {
class ThreadPool;
}  // namespace s2c2::util

#if defined(__GNUC__) || defined(__clang__)
#define S2C2_RESTRICT __restrict__
#elif defined(_MSC_VER)
#define S2C2_RESTRICT __restrict
#else
#define S2C2_RESTRICT
#endif

namespace s2c2::linalg::kernels {

/// Row tile for dense matvec: independent accumulator chains per tile.
inline constexpr std::size_t kMatvecRowTile = 4;
/// RHS-column tile for matmat: contiguous in the row-major panel.
inline constexpr std::size_t kMatmatColTile = 8;
/// Row tile for dense matmat (paired with kMatmatColTile accumulators).
inline constexpr std::size_t kMatmatRowTile = 2;

/// Minimum multiply count before the pool overloads fan out; below it the
/// pool's claim/notify overhead costs more than the kernel itself (the
/// same rationale as the OpenMP path's internal threshold).
inline constexpr std::size_t kPoolMinWork = 1u << 16;

/// y[0..rows) = A * x for row-major A (rows x cols). y must not alias A/x.
void dense_matvec(const double* S2C2_RESTRICT a, std::size_t rows,
                  std::size_t cols, const double* S2C2_RESTRICT x,
                  double* S2C2_RESTRICT y);

/// Y = A * X for row-major A (rows x cols) and row-major panel X
/// (cols x width); Y is rows x width. Column j of Y is bitwise the
/// dense_matvec of column j of X.
void dense_matmat(const double* S2C2_RESTRICT a, std::size_t rows,
                  std::size_t cols, const double* S2C2_RESTRICT x,
                  std::size_t width, double* S2C2_RESTRICT y);

/// y[0..rows) = A * x for `rows` CSR rows. `row_ptr` points at the first
/// row's entry and holds rows+1 offsets into the *absolute* col_idx /
/// values arrays — pass `row_ptr() + r0` to run a row sub-range.
void csr_matvec(const std::size_t* S2C2_RESTRICT row_ptr, std::size_t rows,
                const std::size_t* S2C2_RESTRICT col_idx,
                const double* S2C2_RESTRICT values,
                const double* S2C2_RESTRICT x, double* S2C2_RESTRICT y);

/// Tiled CSR panel product: Y (rows x width) = A * X (cols x width),
/// one pass over each row's nonzeros per column tile instead of one pass
/// per RHS column. Same row sub-range convention as csr_matvec.
void csr_matmat(const std::size_t* S2C2_RESTRICT row_ptr, std::size_t rows,
                const std::size_t* S2C2_RESTRICT col_idx,
                const double* S2C2_RESTRICT values,
                const double* S2C2_RESTRICT x, std::size_t width,
                double* S2C2_RESTRICT y);

// ---- deterministic row-parallel variants (intra-round parallelism) ----
// Identical bits to the serial kernels above at ANY pool size: the row
// split is over whole output elements only (header contract). Pass
// pool == nullptr for the serial path.

/// Row-parallel dense_matvec over tile-aligned row blocks.
void dense_matvec(const double* a, std::size_t rows, std::size_t cols,
                  const double* x, double* y, util::ThreadPool* pool);

/// Row-parallel dense_matmat over tile-aligned row blocks.
void dense_matmat(const double* a, std::size_t rows, std::size_t cols,
                  const double* x, std::size_t width, double* y,
                  util::ThreadPool* pool);

/// Row-parallel csr_matvec (row sub-range convention unchanged).
void csr_matvec(const std::size_t* row_ptr, std::size_t rows,
                const std::size_t* col_idx, const double* values,
                const double* x, double* y, util::ThreadPool* pool);

/// Row-parallel csr_matmat (row sub-range convention unchanged).
void csr_matmat(const std::size_t* row_ptr, std::size_t rows,
                const std::size_t* col_idx, const double* values,
                const double* x, std::size_t width, double* y,
                util::ThreadPool* pool);

}  // namespace s2c2::linalg::kernels
