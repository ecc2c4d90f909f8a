#include "src/linalg/kernels.h"

#include <algorithm>

#include "src/util/thread_pool.h"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace s2c2::linalg::kernels {

namespace {

// Minimum multiply count before the optional OpenMP row split engages;
// below it thread fan-out costs more than the kernel.
[[maybe_unused]] constexpr std::size_t kOmpMinWork = 1u << 16;

// One dense matvec row tile: kMatvecRowTile independent accumulator
// chains share each x[c] load; every chain is the naive ascending-c sum.
inline void matvec_rows4(const double* S2C2_RESTRICT a, std::size_t cols,
                         const double* S2C2_RESTRICT x,
                         double* S2C2_RESTRICT y) {
  const double* S2C2_RESTRICT a0 = a;
  const double* S2C2_RESTRICT a1 = a + cols;
  const double* S2C2_RESTRICT a2 = a + 2 * cols;
  const double* S2C2_RESTRICT a3 = a + 3 * cols;
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  for (std::size_t c = 0; c < cols; ++c) {
    const double xc = x[c];
    acc0 += a0[c] * xc;
    acc1 += a1[c] * xc;
    acc2 += a2[c] * xc;
    acc3 += a3[c] * xc;
  }
  y[0] = acc0;
  y[1] = acc1;
  y[2] = acc2;
  y[3] = acc3;
}

inline void matvec_rows_tail(const double* S2C2_RESTRICT a, std::size_t rows,
                             std::size_t cols, const double* S2C2_RESTRICT x,
                             double* S2C2_RESTRICT y) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* S2C2_RESTRICT row = a + r * cols;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

inline void dense_matvec_range(const double* S2C2_RESTRICT a, std::size_t r0,
                               std::size_t r1, std::size_t cols,
                               const double* S2C2_RESTRICT x,
                               double* S2C2_RESTRICT y) {
  std::size_t r = r0;
  for (; r + kMatvecRowTile <= r1; r += kMatvecRowTile) {
    matvec_rows4(a + r * cols, cols, x, y + r);
  }
  matvec_rows_tail(a + r * cols, r1 - r, cols, x, y + r);
}

// One (row pair) x (8 RHS columns) matmat tile: a single ascending-c
// pass over both rows, 16 accumulator lanes. The column tile is
// contiguous in the row-major panel; each lane is still the naive
// ascending-c chain acc = acc + a*x for its output element (multiply and
// add each rounded — the build pins -ffp-contract=off).
#if defined(__GNUC__) || defined(__clang__)
// Explicit two-lane vectors: 8 accumulators that stay in registers, 4
// panel loads and 2 broadcasts per c. Left to itself, GCC vectorizes the
// array form below along c with shuffles and spills its 16 accumulators
// to the stack.
typedef double Vec2 __attribute__((vector_size(16)));

inline Vec2 load2(const double* p) {
  Vec2 v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

inline void store2(double* p, Vec2 v) { __builtin_memcpy(p, &v, sizeof v); }

inline void matmat_rows2_tile8(const double* S2C2_RESTRICT a0,
                               const double* S2C2_RESTRICT a1,
                               std::size_t cols, const double* S2C2_RESTRICT x,
                               std::size_t width, double* S2C2_RESTRICT y0,
                               double* S2C2_RESTRICT y1) {
  static_assert(kMatmatColTile == 8, "the vector tile is 4 lanes x 2");
  Vec2 p0 = {}, p1 = {}, p2 = {}, p3 = {};  // row a0, columns 0..7
  Vec2 q0 = {}, q1 = {}, q2 = {}, q3 = {};  // row a1, columns 0..7
  for (std::size_t c = 0; c < cols; ++c) {
    const double* S2C2_RESTRICT xc = x + c * width;
    const Vec2 x0 = load2(xc);
    const Vec2 x1 = load2(xc + 2);
    const Vec2 x2 = load2(xc + 4);
    const Vec2 x3 = load2(xc + 6);
    const Vec2 b0 = {a0[c], a0[c]};
    const Vec2 b1 = {a1[c], a1[c]};
    p0 = p0 + b0 * x0;
    p1 = p1 + b0 * x1;
    p2 = p2 + b0 * x2;
    p3 = p3 + b0 * x3;
    q0 = q0 + b1 * x0;
    q1 = q1 + b1 * x1;
    q2 = q2 + b1 * x2;
    q3 = q3 + b1 * x3;
  }
  store2(y0, p0);
  store2(y0 + 2, p1);
  store2(y0 + 4, p2);
  store2(y0 + 6, p3);
  store2(y1, q0);
  store2(y1 + 2, q1);
  store2(y1 + 4, q2);
  store2(y1 + 6, q3);
}
#else
inline void matmat_rows2_tile8(const double* S2C2_RESTRICT a0,
                               const double* S2C2_RESTRICT a1,
                               std::size_t cols, const double* S2C2_RESTRICT x,
                               std::size_t width, double* S2C2_RESTRICT y0,
                               double* S2C2_RESTRICT y1) {
  constexpr std::size_t W = kMatmatColTile;
  double acc0[W] = {};
  double acc1[W] = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const double* S2C2_RESTRICT xc = x + c * width;
    const double a0c = a0[c];
    const double a1c = a1[c];
    for (std::size_t j = 0; j < W; ++j) acc0[j] += a0c * xc[j];
    for (std::size_t j = 0; j < W; ++j) acc1[j] += a1c * xc[j];
  }
  for (std::size_t j = 0; j < W; ++j) y0[j] = acc0[j];
  for (std::size_t j = 0; j < W; ++j) y1[j] = acc1[j];
}
#endif

template <std::size_t W>
inline void matmat_row1_tile(const double* S2C2_RESTRICT a0, std::size_t cols,
                             const double* S2C2_RESTRICT x, std::size_t width,
                             double* S2C2_RESTRICT y0) {
  double acc0[W] = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const double* S2C2_RESTRICT xc = x + c * width;
    const double a0c = a0[c];
    for (std::size_t j = 0; j < W; ++j) acc0[j] += a0c * xc[j];
  }
  for (std::size_t j = 0; j < W; ++j) y0[j] = acc0[j];
}

// Ragged column tail (width % kMatmatColTile): variable-length inner
// loop, same chains.
inline void matmat_row1_tail(const double* S2C2_RESTRICT a0, std::size_t cols,
                             const double* S2C2_RESTRICT x, std::size_t width,
                             std::size_t jw, double* S2C2_RESTRICT y0) {
  double acc[kMatmatColTile] = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const double* S2C2_RESTRICT xc = x + c * width;
    const double a0c = a0[c];
    for (std::size_t j = 0; j < jw; ++j) acc[j] += a0c * xc[j];
  }
  for (std::size_t j = 0; j < jw; ++j) y0[j] = acc[j];
}

inline void dense_matmat_range(const double* S2C2_RESTRICT a, std::size_t r0,
                               std::size_t r1, std::size_t cols,
                               const double* S2C2_RESTRICT x,
                               std::size_t width, double* S2C2_RESTRICT y) {
  std::size_t r = r0;
  for (; r + kMatmatRowTile <= r1; r += kMatmatRowTile) {
    const double* S2C2_RESTRICT a0 = a + r * cols;
    const double* S2C2_RESTRICT a1 = a0 + cols;
    double* S2C2_RESTRICT y0 = y + r * width;
    double* S2C2_RESTRICT y1 = y0 + width;
    std::size_t j = 0;
    for (; j + kMatmatColTile <= width; j += kMatmatColTile) {
      matmat_rows2_tile8(a0, a1, cols, x + j, width, y0 + j, y1 + j);
    }
    if (j < width) {
      matmat_row1_tail(a0, cols, x + j, width, width - j, y0 + j);
      matmat_row1_tail(a1, cols, x + j, width, width - j, y1 + j);
    }
  }
  for (; r < r1; ++r) {
    const double* S2C2_RESTRICT a0 = a + r * cols;
    double* S2C2_RESTRICT y0 = y + r * width;
    std::size_t j = 0;
    for (; j + kMatmatColTile <= width; j += kMatmatColTile) {
      matmat_row1_tile<kMatmatColTile>(a0, cols, x + j, width, y0 + j);
    }
    if (j < width) matmat_row1_tail(a0, cols, x + j, width, width - j, y0 + j);
  }
}

inline void csr_matvec_range(const std::size_t* S2C2_RESTRICT row_ptr,
                             std::size_t r0, std::size_t r1,
                             const std::size_t* S2C2_RESTRICT col_idx,
                             const double* S2C2_RESTRICT values,
                             const double* S2C2_RESTRICT x,
                             double* S2C2_RESTRICT y) {
  for (std::size_t r = r0; r < r1; ++r) {
    const std::size_t p0 = row_ptr[r];
    const std::size_t p1 = row_ptr[r + 1];
    double acc = 0.0;
    for (std::size_t p = p0; p < p1; ++p) acc += values[p] * x[col_idx[p]];
    y[r] = acc;
  }
}

// Tiled CSR panel rows: one pass over the row's nonzeros per column tile
// of 8 (instead of one pass per RHS column), gathers amortized across
// the tile; per-element chains stay in CSR storage order.
template <std::size_t W>
inline void csr_row_tile(std::size_t p0, std::size_t p1,
                         const std::size_t* S2C2_RESTRICT col_idx,
                         const double* S2C2_RESTRICT values,
                         const double* S2C2_RESTRICT x, std::size_t width,
                         double* S2C2_RESTRICT y) {
  double acc[W] = {};
  for (std::size_t p = p0; p < p1; ++p) {
    const double v = values[p];
    const double* S2C2_RESTRICT xc = x + col_idx[p] * width;
    for (std::size_t j = 0; j < W; ++j) acc[j] += v * xc[j];
  }
  for (std::size_t j = 0; j < W; ++j) y[j] = acc[j];
}

inline void csr_row_tail(std::size_t p0, std::size_t p1,
                         const std::size_t* S2C2_RESTRICT col_idx,
                         const double* S2C2_RESTRICT values,
                         const double* S2C2_RESTRICT x, std::size_t width,
                         std::size_t jw, double* S2C2_RESTRICT y) {
  double acc[kMatmatColTile] = {};
  for (std::size_t p = p0; p < p1; ++p) {
    const double v = values[p];
    const double* S2C2_RESTRICT xc = x + col_idx[p] * width;
    for (std::size_t j = 0; j < jw; ++j) acc[j] += v * xc[j];
  }
  for (std::size_t j = 0; j < jw; ++j) y[j] = acc[j];
}

inline void csr_matmat_range(const std::size_t* S2C2_RESTRICT row_ptr,
                             std::size_t r0, std::size_t r1,
                             const std::size_t* S2C2_RESTRICT col_idx,
                             const double* S2C2_RESTRICT values,
                             const double* S2C2_RESTRICT x, std::size_t width,
                             double* S2C2_RESTRICT y) {
  for (std::size_t r = r0; r < r1; ++r) {
    const std::size_t p0 = row_ptr[r];
    const std::size_t p1 = row_ptr[r + 1];
    double* S2C2_RESTRICT yr = y + r * width;
    std::size_t j = 0;
    for (; j + kMatmatColTile <= width; j += kMatmatColTile) {
      csr_row_tile<kMatmatColTile>(p0, p1, col_idx, values, x + j, width,
                                   yr + j);
    }
    if (j < width) {
      csr_row_tail(p0, p1, col_idx, values, x + j, width, width - j, yr + j);
    }
  }
}

// Splits [0, rows) into contiguous tile-aligned blocks, one per
// participating thread (pool workers + the caller), and runs `body(lo,
// hi)` on each via the help-first member parallel_for. Blocks are
// non-overlapping and cover every row exactly once, and each body call
// is one of the serial range helpers above — so the split never touches
// a per-element accumulation chain and the output bits match the serial
// kernel for any pool size. Serial when the pool is null, the multiply
// count is under kPoolMinWork, or only one block results.
template <typename Body>
void parallel_row_blocks(util::ThreadPool* pool, std::size_t rows,
                         std::size_t work, std::size_t tile,
                         const Body& body) {
  if (pool == nullptr || work < kPoolMinWork || rows <= tile) {
    body(0, rows);
    return;
  }
  const std::size_t tiles = (rows + tile - 1) / tile;
  const std::size_t parts = std::min(pool->size() + 1, tiles);
  if (parts <= 1) {
    body(0, rows);
    return;
  }
  pool->parallel_for(parts, [&](std::size_t p) {
    const std::size_t lo = tiles * p / parts * tile;
    const std::size_t hi =
        p + 1 == parts ? rows : std::min(tiles * (p + 1) / parts * tile, rows);
    if (lo < hi) body(lo, hi);
  });
}

}  // namespace

void dense_matvec(const double* S2C2_RESTRICT a, std::size_t rows,
                  std::size_t cols, const double* S2C2_RESTRICT x,
                  double* S2C2_RESTRICT y) {
#if defined(_OPENMP)
  if (rows * cols >= kOmpMinWork) {
    const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(rows);
#pragma omp parallel
    {
      const int nt = omp_get_num_threads();
      const int id = omp_get_thread_num();
      const std::ptrdiff_t lo = n * id / nt;
      const std::ptrdiff_t hi = n * (id + 1) / nt;
      dense_matvec_range(a, static_cast<std::size_t>(lo),
                         static_cast<std::size_t>(hi), cols, x, y);
    }
    return;
  }
#endif
  dense_matvec_range(a, 0, rows, cols, x, y);
}

void dense_matmat(const double* S2C2_RESTRICT a, std::size_t rows,
                  std::size_t cols, const double* S2C2_RESTRICT x,
                  std::size_t width, double* S2C2_RESTRICT y) {
#if defined(_OPENMP)
  if (rows * cols * width >= kOmpMinWork) {
    const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(rows);
#pragma omp parallel
    {
      const int nt = omp_get_num_threads();
      const int id = omp_get_thread_num();
      const std::ptrdiff_t lo = n * id / nt;
      const std::ptrdiff_t hi = n * (id + 1) / nt;
      dense_matmat_range(a, static_cast<std::size_t>(lo),
                         static_cast<std::size_t>(hi), cols, x, width, y);
    }
    return;
  }
#endif
  dense_matmat_range(a, 0, rows, cols, x, width, y);
}

void csr_matvec(const std::size_t* S2C2_RESTRICT row_ptr, std::size_t rows,
                const std::size_t* S2C2_RESTRICT col_idx,
                const double* S2C2_RESTRICT values,
                const double* S2C2_RESTRICT x, double* S2C2_RESTRICT y) {
  csr_matvec_range(row_ptr, 0, rows, col_idx, values, x, y);
}

void csr_matmat(const std::size_t* S2C2_RESTRICT row_ptr, std::size_t rows,
                const std::size_t* S2C2_RESTRICT col_idx,
                const double* S2C2_RESTRICT values,
                const double* S2C2_RESTRICT x, std::size_t width,
                double* S2C2_RESTRICT y) {
  csr_matmat_range(row_ptr, 0, rows, col_idx, values, x, width, y);
}

void dense_matvec(const double* a, std::size_t rows, std::size_t cols,
                  const double* x, double* y, util::ThreadPool* pool) {
  parallel_row_blocks(pool, rows, rows * cols, kMatvecRowTile,
                      [&](std::size_t lo, std::size_t hi) {
                        dense_matvec_range(a, lo, hi, cols, x, y);
                      });
}

void dense_matmat(const double* a, std::size_t rows, std::size_t cols,
                  const double* x, std::size_t width, double* y,
                  util::ThreadPool* pool) {
  parallel_row_blocks(pool, rows, rows * cols * width, kMatmatRowTile,
                      [&](std::size_t lo, std::size_t hi) {
                        dense_matmat_range(a, lo, hi, cols, x, width, y);
                      });
}

void csr_matvec(const std::size_t* row_ptr, std::size_t rows,
                const std::size_t* col_idx, const double* values,
                const double* x, double* y, util::ThreadPool* pool) {
  const std::size_t nnz = rows == 0 ? 0 : row_ptr[rows] - row_ptr[0];
  parallel_row_blocks(pool, rows, nnz, 1,
                      [&](std::size_t lo, std::size_t hi) {
                        csr_matvec_range(row_ptr, lo, hi, col_idx, values, x,
                                         y);
                      });
}

void csr_matmat(const std::size_t* row_ptr, std::size_t rows,
                const std::size_t* col_idx, const double* values,
                const double* x, std::size_t width, double* y,
                util::ThreadPool* pool) {
  const std::size_t nnz = rows == 0 ? 0 : row_ptr[rows] - row_ptr[0];
  parallel_row_blocks(pool, rows, nnz * width, 1,
                      [&](std::size_t lo, std::size_t hi) {
                        csr_matmat_range(row_ptr, lo, hi, col_idx, values, x,
                                         width, y);
                      });
}

}  // namespace s2c2::linalg::kernels
