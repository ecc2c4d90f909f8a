// Blocked-kernel equivalence suite: every tiled kernel in
// src/linalg/kernels.h must be BITWISE identical (EXPECT_EQ on doubles,
// never EXPECT_NEAR) to the naive scalar reference it replaced, because
// the PR 5-8 fingerprint goldens hash accounting totals derived from these
// products and double addition is not associative — any reassociation
// would re-pin every golden. The kernels only interleave *different*
// output elements' accumulation chains; each element's own chain stays in
// ascending-column (dense) or CSR-storage (sparse) order.
//
// Coverage: randomized shapes straddling every tile boundary (row tile 4
// for matvec, 2 x 8 for matmat), odd and degenerate sizes, unaligned
// row-pointer offsets (sub-range entry points as EncodedPartition uses
// them), dense matvec/matmat and CSR matvec/matmat, the Matrix/CsrMatrix
// wrappers, concurrent kernel invocations across parameterized thread
// counts (results must be identical at any --jobs), and the row-partitioned
// pool overloads — serial vs. pooled EXPECT_EQ sweeps at parameterized
// pool sizes, above and below the kPoolMinWork engagement threshold, plus
// the outer-pool nesting composition.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/linalg/kernels.h"
#include "src/linalg/matrix.h"
#include "src/linalg/sparse.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace s2c2::linalg {
namespace {

// Naive references: the exact pre-kernel loops, one scalar accumulator
// chain per output element.

std::vector<double> naive_dense_matvec(const double* a, std::size_t rows,
                                       std::size_t cols, const double* x) {
  std::vector<double> y(rows, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols; ++c) acc += a[r * cols + c] * x[c];
    y[r] = acc;
  }
  return y;
}

std::vector<double> naive_dense_matmat(const double* a, std::size_t rows,
                                       std::size_t cols, const double* x,
                                       std::size_t width) {
  std::vector<double> y(rows * width, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < width; ++j) {
      double acc = 0.0;
      for (std::size_t c = 0; c < cols; ++c) {
        acc += a[r * cols + c] * x[c * width + j];
      }
      y[r * width + j] = acc;
    }
  }
  return y;
}

std::vector<double> naive_csr_matvec(const CsrMatrix& m, std::size_t r0,
                                     std::size_t r1, const double* x) {
  const auto rp = m.row_ptr();
  const auto ci = m.col_idx();
  const auto vals = m.values();
  std::vector<double> y(r1 - r0, 0.0);
  for (std::size_t r = r0; r < r1; ++r) {
    double acc = 0.0;
    for (std::size_t p = rp[r]; p < rp[r + 1]; ++p) {
      acc += vals[p] * x[ci[p]];
    }
    y[r - r0] = acc;
  }
  return y;
}

std::vector<double> naive_csr_matmat(const CsrMatrix& m, std::size_t r0,
                                     std::size_t r1, const double* x,
                                     std::size_t width) {
  const auto rp = m.row_ptr();
  const auto ci = m.col_idx();
  const auto vals = m.values();
  std::vector<double> y((r1 - r0) * width, 0.0);
  for (std::size_t r = r0; r < r1; ++r) {
    for (std::size_t j = 0; j < width; ++j) {
      double acc = 0.0;
      for (std::size_t p = rp[r]; p < rp[r + 1]; ++p) {
        acc += vals[p] * x[ci[p] * width + j];
      }
      y[(r - r0) * width + j] = acc;
    }
  }
  return y;
}

std::vector<double> random_values(std::size_t n, util::Rng& rng) {
  std::vector<double> v(n);
  // Mixed magnitudes so reassociation would actually change the sums.
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = rng.normal() * (i % 5 == 0 ? 1e6 : (i % 3 == 0 ? 1e-6 : 1.0));
  }
  return v;
}

CsrMatrix random_csr(std::size_t rows, std::size_t cols, double density,
                     util::Rng& rng) {
  std::vector<Triplet> trips;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.uniform(0.0, 1.0) < density) {
        trips.push_back({r, c, rng.normal()});
      }
    }
  }
  return CsrMatrix(rows, cols, std::move(trips));
}

// Shapes straddling the tile boundaries (kMatvecRowTile = 4,
// kMatmatRowTile x kMatmatColTile = 2 x 8) plus odd/degenerate sizes.
struct Shape {
  std::size_t rows, cols;
};
const Shape kShapes[] = {{1, 1},  {1, 7},   {3, 5},   {4, 4},  {5, 9},
                         {7, 16}, {8, 8},   {9, 1},   {13, 3}, {16, 17},
                         {31, 8}, {32, 33}, {63, 24}, {64, 5}};
const std::size_t kWidths[] = {1, 2, 3, 7, 8, 9, 15, 16, 17};

TEST(KernelEquivalence, DenseMatvecBitwiseMatchesNaive) {
  util::Rng rng(0xA11CE);
  for (const Shape s : kShapes) {
    const std::vector<double> a = random_values(s.rows * s.cols, rng);
    const std::vector<double> x = random_values(s.cols, rng);
    std::vector<double> y(s.rows, -1.0);
    kernels::dense_matvec(a.data(), s.rows, s.cols, x.data(), y.data());
    const std::vector<double> ref =
        naive_dense_matvec(a.data(), s.rows, s.cols, x.data());
    for (std::size_t r = 0; r < s.rows; ++r) {
      EXPECT_EQ(y[r], ref[r]) << s.rows << "x" << s.cols << " row " << r;
    }
  }
}

TEST(KernelEquivalence, DenseMatmatBitwiseMatchesNaive) {
  util::Rng rng(0xB0B);
  for (const Shape s : kShapes) {
    const std::vector<double> a = random_values(s.rows * s.cols, rng);
    for (const std::size_t w : kWidths) {
      const std::vector<double> x = random_values(s.cols * w, rng);
      std::vector<double> y(s.rows * w, -1.0);
      kernels::dense_matmat(a.data(), s.rows, s.cols, x.data(), w, y.data());
      const std::vector<double> ref =
          naive_dense_matmat(a.data(), s.rows, s.cols, x.data(), w);
      for (std::size_t i = 0; i < y.size(); ++i) {
        EXPECT_EQ(y[i], ref[i])
            << s.rows << "x" << s.cols << " b=" << w << " i=" << i;
      }
    }
  }
}

TEST(KernelEquivalence, MatmatColumnsMatchMatvecOfPanelColumns) {
  // The cross-kernel invariant the decoder relies on: column j of a panel
  // product is the matvec of panel column j, bit for bit.
  util::Rng rng(0xC01);
  const std::size_t rows = 23, cols = 19, width = 11;
  const std::vector<double> a = random_values(rows * cols, rng);
  const std::vector<double> x = random_values(cols * width, rng);
  std::vector<double> y(rows * width, 0.0);
  kernels::dense_matmat(a.data(), rows, cols, x.data(), width, y.data());
  for (std::size_t j = 0; j < width; ++j) {
    std::vector<double> xj(cols);
    for (std::size_t c = 0; c < cols; ++c) xj[c] = x[c * width + j];
    std::vector<double> yj(rows, 0.0);
    kernels::dense_matvec(a.data(), rows, cols, xj.data(), yj.data());
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(y[r * width + j], yj[r]) << "col " << j << " row " << r;
    }
  }
}

TEST(KernelEquivalence, CsrMatvecBitwiseMatchesNaiveIncludingSubRanges) {
  util::Rng rng(0xD0C);
  for (const double density : {0.05, 0.3, 0.9}) {
    const CsrMatrix m = random_csr(37, 29, density, rng);
    const std::vector<double> x = random_values(m.cols(), rng);
    // Full matrix and unaligned row sub-ranges (the EncodedPartition
    // chunk-entry convention: row_ptr() + r0).
    const std::size_t ranges[][2] = {{0, 37}, {0, 1}, {5, 13}, {30, 37},
                                     {17, 18}};
    for (const auto& range : ranges) {
      const std::size_t r0 = range[0], r1 = range[1];
      std::vector<double> y(r1 - r0, -1.0);
      kernels::csr_matvec(m.row_ptr().data() + r0, r1 - r0,
                          m.col_idx().data(), m.values().data(), x.data(),
                          y.data());
      const std::vector<double> ref = naive_csr_matvec(m, r0, r1, x.data());
      for (std::size_t i = 0; i < y.size(); ++i) {
        EXPECT_EQ(y[i], ref[i])
            << "density " << density << " rows [" << r0 << "," << r1 << ")";
      }
    }
  }
}

TEST(KernelEquivalence, CsrMatmatBitwiseMatchesNaive) {
  util::Rng rng(0xE77);
  const CsrMatrix m = random_csr(41, 23, 0.2, rng);
  for (const std::size_t w : kWidths) {
    const std::vector<double> x = random_values(m.cols() * w, rng);
    std::vector<double> y(m.rows() * w, -1.0);
    kernels::csr_matmat(m.row_ptr().data(), m.rows(), m.col_idx().data(),
                        m.values().data(), x.data(), w, y.data());
    const std::vector<double> ref =
        naive_csr_matmat(m, 0, m.rows(), x.data(), w);
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_EQ(y[i], ref[i]) << "b=" << w << " i=" << i;
    }
  }
}

// One kernel call over a run of consecutive chunks' rows [a*rpc, b*rpc)
// — how an S2C2 worker's assigned range is computed — must emit exactly
// the bits of one call per chunk: the run only shifts which rows share a
// tile, never an element's own chain. Width 1 goes through the matvec
// kernels, wider panels through matmat, as EncodedPartition dispatches.
TEST(KernelEquivalence, RunShapedCallsMatchPerChunkCalls) {
  util::Rng rng(0x5EED);
  constexpr std::size_t kChunks = 5;
  const std::size_t cols = 13;
  for (const std::size_t rpc : {1, 2, 3}) {
    const std::size_t rows = kChunks * rpc;
    const std::vector<double> a = random_values(rows * cols, rng);
    const CsrMatrix m = random_csr(rows, cols, 0.4, rng);
    for (const std::size_t w : {1, 7, 8, 9, 16}) {
      const std::vector<double> x = random_values(cols * w, rng);
      // rows [r0, r0 + n) of the dense and the CSR operator, one call each.
      const auto dense = [&](std::size_t r0, std::size_t n, double* y) {
        if (w == 1) {
          kernels::dense_matvec(a.data() + r0 * cols, n, cols, x.data(), y);
        } else {
          kernels::dense_matmat(a.data() + r0 * cols, n, cols, x.data(), w,
                                y);
        }
      };
      const auto csr = [&](std::size_t r0, std::size_t n, double* y) {
        if (w == 1) {
          kernels::csr_matvec(m.row_ptr().data() + r0, n, m.col_idx().data(),
                              m.values().data(), x.data(), y);
        } else {
          kernels::csr_matmat(m.row_ptr().data() + r0, n, m.col_idx().data(),
                              m.values().data(), x.data(), w, y);
        }
      };
      for (std::size_t first = 0; first < kChunks; ++first) {
        for (std::size_t end = first + 1; end <= kChunks; ++end) {
          const std::size_t n = (end - first) * rpc;
          std::vector<double> run_d(n * w, -1.0), per_d(n * w, -2.0);
          std::vector<double> run_s(n * w, -1.0), per_s(n * w, -2.0);
          dense(first * rpc, n, run_d.data());
          csr(first * rpc, n, run_s.data());
          for (std::size_t c = first; c < end; ++c) {
            const std::size_t off = (c - first) * rpc * w;
            dense(c * rpc, rpc, per_d.data() + off);
            csr(c * rpc, rpc, per_s.data() + off);
          }
          for (std::size_t i = 0; i < n * w; ++i) {
            EXPECT_EQ(run_d[i], per_d[i]) << "dense rpc=" << rpc << " b=" << w
                                          << " run [" << first << "," << end
                                          << ") i=" << i;
            EXPECT_EQ(run_s[i], per_s[i]) << "csr rpc=" << rpc << " b=" << w
                                          << " run [" << first << "," << end
                                          << ") i=" << i;
          }
        }
      }
    }
  }
}

TEST(KernelEquivalence, MatrixWrappersUseTheSameChains) {
  // Matrix::matvec/matmat and the _into forms must all emit the kernel
  // results — no wrapper may introduce its own arithmetic.
  util::Rng rng(0xF00);
  const Matrix a = Matrix::random_uniform(21, 14, rng);
  const std::vector<double> x = random_values(14 * 5, rng);
  const std::vector<double> ref =
      naive_dense_matmat(a.data().data(), 21, 14, x.data(), 5);

  Matrix panel(14, 5);
  for (std::size_t i = 0; i < x.size(); ++i) {
    panel(i / 5, i % 5) = x[i];
  }
  const Matrix y = a.matmat(panel);
  std::vector<double> y_into(21 * 5, -1.0);
  a.matmat_into(x, 5, y_into);
  for (std::size_t r = 0; r < 21; ++r) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(y(r, j), ref[r * 5 + j]);
      EXPECT_EQ(y_into[r * 5 + j], ref[r * 5 + j]);
    }
  }

  std::vector<double> x0(14);
  for (std::size_t c = 0; c < 14; ++c) x0[c] = x[c * 5];
  const Vector yv = a.matvec(x0);
  std::vector<double> yv_into(21, -1.0);
  a.matvec_into(x0, yv_into);
  const std::vector<double> vref =
      naive_dense_matvec(a.data().data(), 21, 14, x0.data());
  for (std::size_t r = 0; r < 21; ++r) {
    EXPECT_EQ(yv[r], vref[r]);
    EXPECT_EQ(yv_into[r], vref[r]);
  }
}

class PoolOverloadTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoolOverloadTest, DenseKernelsBitwiseMatchSerialAtAnyPoolSize) {
  // The row-partitioned pool overloads against the serial kernels,
  // EXPECT_EQ per element. Two regimes per shape list: the small kShapes
  // fall under kPoolMinWork and take the serial fallback inside the
  // overload; the large shapes straddle row-tile boundaries around the
  // block split points (255/256/257 rows against tile 4, rows below/at/
  // above pool-size multiples) and genuinely fan out. Both must emit the
  // serial bits — the partition is over whole output rows only.
  util::ThreadPool pool(GetParam());
  util::Rng rng(0x9001);
  const Shape big[] = {{255, 300}, {256, 300}, {257, 300},
                       {258, 257}, {301, 260}, {512, 129}};
  auto check_shape = [&](std::size_t rows, std::size_t cols) {
    const std::vector<double> a = random_values(rows * cols, rng);
    const std::vector<double> x = random_values(cols, rng);
    std::vector<double> serial(rows, -1.0);
    std::vector<double> pooled(rows, -2.0);
    kernels::dense_matvec(a.data(), rows, cols, x.data(), serial.data());
    kernels::dense_matvec(a.data(), rows, cols, x.data(), pooled.data(),
                          &pool);
    EXPECT_EQ(serial, pooled) << rows << "x" << cols << " matvec";
    for (const std::size_t w : {std::size_t{1}, std::size_t{3},
                                std::size_t{8}}) {
      const std::vector<double> xp = random_values(cols * w, rng);
      std::vector<double> sref(rows * w, -1.0);
      std::vector<double> pref(rows * w, -2.0);
      kernels::dense_matmat(a.data(), rows, cols, xp.data(), w, sref.data());
      kernels::dense_matmat(a.data(), rows, cols, xp.data(), w, pref.data(),
                            &pool);
      EXPECT_EQ(sref, pref) << rows << "x" << cols << " b=" << w;
    }
  };
  for (const Shape s : big) check_shape(s.rows, s.cols);
  for (const Shape s : kShapes) check_shape(s.rows, s.cols);
}

TEST_P(PoolOverloadTest, CsrKernelsBitwiseMatchSerialAtAnyPoolSize) {
  util::ThreadPool pool(GetParam());
  util::Rng rng(0x9002);
  // ~80k nonzeros: over kPoolMinWork for the matvec (work = nnz), so the
  // row blocks engage; the narrow 150 x 150 operator stays under it for
  // matvec and checks the in-overload serial fallback instead.
  for (const Shape s : {Shape{410, 400}, Shape{150, 150}}) {
    const CsrMatrix m = random_csr(s.rows, s.cols, 0.5, rng);
    const std::vector<double> x = random_values(m.cols(), rng);
    std::vector<double> serial(m.rows(), -1.0);
    std::vector<double> pooled(m.rows(), -2.0);
    kernels::csr_matvec(m.row_ptr().data(), m.rows(), m.col_idx().data(),
                        m.values().data(), x.data(), serial.data());
    kernels::csr_matvec(m.row_ptr().data(), m.rows(), m.col_idx().data(),
                        m.values().data(), x.data(), pooled.data(), &pool);
    EXPECT_EQ(serial, pooled) << s.rows << "x" << s.cols << " csr matvec";
    for (const std::size_t w : {std::size_t{2}, std::size_t{7}}) {
      const std::vector<double> xp = random_values(m.cols() * w, rng);
      std::vector<double> sref(m.rows() * w, -1.0);
      std::vector<double> pref(m.rows() * w, -2.0);
      kernels::csr_matmat(m.row_ptr().data(), m.rows(), m.col_idx().data(),
                          m.values().data(), xp.data(), w, sref.data());
      kernels::csr_matmat(m.row_ptr().data(), m.rows(), m.col_idx().data(),
                          m.values().data(), xp.data(), w, pref.data(),
                          &pool);
      EXPECT_EQ(sref, pref) << s.rows << "x" << s.cols << " csr b=" << w;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, PoolOverloadTest,
                         ::testing::Values(1, 2, 3, 7));

TEST(KernelEquivalence, PoolOverloadsNestedInsideAnOuterPoolStaySerialSafe) {
  // The engine-inside-sharded-harness composition in miniature: pool
  // overloads invoked from tasks of an OUTER pool (the member parallel_for
  // is help-first, so inner fan-outs drain without deadlocking even when
  // outer and inner share threads) must still emit the serial bits.
  util::ThreadPool outer(3);
  util::ThreadPool inner(2);
  util::Rng rng(0x9003);
  const std::size_t rows = 300, cols = 280;
  const std::vector<double> a = random_values(rows * cols, rng);
  std::vector<std::vector<double>> inputs;
  for (int i = 0; i < 8; ++i) inputs.push_back(random_values(cols, rng));
  std::vector<std::vector<double>> serial(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    serial[i].assign(rows, 0.0);
    kernels::dense_matvec(a.data(), rows, cols, inputs[i].data(),
                          serial[i].data());
  }
  std::vector<std::vector<double>> nested(inputs.size());
  outer.parallel_for(inputs.size(), [&](std::size_t i) {
    nested[i].assign(rows, 0.0);
    kernels::dense_matvec(a.data(), rows, cols, inputs[i].data(),
                          nested[i].data(), &inner);
  });
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(serial[i], nested[i]) << "input " << i;
  }
}

class KernelThreadedTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelThreadedTest, ConcurrentInvocationsAreBitIdentical) {
  // The kernels are pure functions of their inputs; hammering one shared
  // operator from `jobs` threads at once must reproduce the serial result
  // bit for bit in every slot — the determinism contract the harness
  // relies on at any --jobs.
  const std::size_t jobs = GetParam();
  util::Rng rng(0xBEEF);
  const std::size_t rows = 33, cols = 27, width = 6;
  const std::vector<double> a = random_values(rows * cols, rng);
  std::vector<std::vector<double>> inputs;
  for (int i = 0; i < 24; ++i) {
    inputs.push_back(random_values(cols * width, rng));
  }
  std::vector<std::vector<double>> serial(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    serial[i].assign(rows * width, 0.0);
    kernels::dense_matmat(a.data(), rows, cols, inputs[i].data(), width,
                          serial[i].data());
  }
  std::vector<std::vector<double>> parallel(inputs.size());
  util::parallel_for(inputs.size(), jobs, [&](std::size_t i) {
    parallel[i].assign(rows * width, 0.0);
    kernels::dense_matmat(a.data(), rows, cols, inputs[i].data(), width,
                          parallel[i].data());
  });
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "input " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Jobs, KernelThreadedTest,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace s2c2::linalg
