// Chunk-granular MDS decoding — the decode side of S2C2.
//
// Each worker's partition is viewed as `num_chunks` equal row ranges. Under
// S2C2 different workers compute different chunk subsets of their own
// partitions, so the responder set varies per chunk. For every chunk index
// the decoder needs results from >= k distinct workers; it then solves the
// k x k system G_sub · Y = B where row j of B holds worker j's computed
// values for that chunk. Y row i recovers (A_i · x) over the chunk's rows.
//
// Solves go through a DecodeContext (coding/decode_context.h): wrap-around
// allocations produce only O(n) distinct responder sets per round, and
// iterative jobs repeat them across rounds, so factorizations are cached
// keyed by the responder bitmap and each fresh set costs only the O(p³)
// Schur-reduced factorization (p = parity responders <= n - k), never the
// dense O(k³) LU. Consecutive chunks sharing a responder set are decoded
// in one batched multi-RHS solve. Pass an external context to keep the
// cache warm across rounds (engines do); by default the decoder owns a
// private one. Complexity table: docs/PERFORMANCE.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/coding/decode_context.h"
#include "src/coding/generator_matrix.h"
#include "src/linalg/matrix.h"
#include "src/util/arena.h"

namespace s2c2::util {
class ThreadPool;
}  // namespace s2c2::util

namespace s2c2::coding {

/// Outcome of a Byzantine verification pass over the registered chunk
/// results (ChunkedDecoder::verify_chunks).
struct ChunkVerification {
  std::vector<std::size_t> corrupt_workers;  // convicted responders, sorted
  std::size_t corrupted_chunks = 0;          // chunks that failed the check
  std::size_t verified_chunks = 0;           // chunks with redundancy checked
  double max_clean_residual = 0.0;           // over the chunks that passed
};

class ChunkedDecoder {
 public:
  /// `rows_per_partition` must be divisible by `num_chunks`; `width` is the
  /// number of values per computed row (1 for matvec). `context`, when
  /// non-null, is borrowed for every solve (its generator must be the same
  /// object as `generator`) so cached factorizations survive this
  /// decoder — engines pass their per-job context to amortize across
  /// rounds. When null the decoder owns a fresh context.
  ChunkedDecoder(const GeneratorMatrix& generator,
                 std::size_t rows_per_partition, std::size_t num_chunks,
                 std::size_t width = 1, DecodeContext* context = nullptr);

  [[nodiscard]] std::size_t num_chunks() const noexcept { return num_chunks_; }
  [[nodiscard]] std::size_t rows_per_chunk() const noexcept {
    return rows_per_chunk_;
  }

  /// Stages worker `worker`'s slot for chunk `chunk` and returns the
  /// rows_per_chunk x width row-major span to write the values into —
  /// arena-backed, so the round hot path computes straight into decoder
  /// storage with no intermediate vector. Returns an empty span on a
  /// duplicate (worker, chunk): submissions are idempotent — reassigned
  /// work can race the original under mis-prediction recovery. The span
  /// lives until the next reset().
  [[nodiscard]] std::span<double> stage_chunk(std::size_t worker,
                                              std::size_t chunk);

  /// Stages worker `worker`'s slots for the `count` consecutive chunks
  /// [first, first + count) as ONE contiguous (count * rows_per_chunk) x
  /// width row-major span — rows in partition order, so a single kernel
  /// call over the run's rows fills every slot. Each chunk is registered
  /// exactly as stage_chunk(worker, c) for c ascending would register it
  /// (same arrival order, decode subsets and cache keys). Unlike
  /// stage_chunk it is not idempotent: every slot of the run must still
  /// be unstaged. The span lives until the next reset().
  [[nodiscard]] std::span<double> stage_run(std::size_t worker,
                                            std::size_t first,
                                            std::size_t count);

  /// Copying registration: rows_per_chunk x width row-major values into a
  /// staged slot (same idempotence as stage_chunk).
  void add_chunk_result(std::size_t worker, std::size_t chunk,
                        std::span<const double> values);
  void add_chunk_result(std::size_t worker, std::size_t chunk,
                        const std::vector<double>& values) {
    add_chunk_result(worker, chunk, std::span<const double>(values));
  }

  /// True once every chunk has results from >= k distinct workers.
  [[nodiscard]] bool decodable() const;

  /// Chunks still lacking k results, with their responder counts.
  [[nodiscard]] std::vector<std::size_t> deficient_chunks() const;

  /// Workers that already responded for the given chunk.
  [[nodiscard]] std::vector<std::size_t> responders(std::size_t chunk) const;

  /// Reconstructs the original product: (k * rows_per_partition) rows x
  /// width, row-major. Throws std::logic_error if not decodable().
  /// Amortized O(k²) per responder set via the decode context; consecutive
  /// same-responder-set chunks share one batched multi-RHS solve.
  [[nodiscard]] linalg::Matrix decode();

  /// Fill-style decode: identical result, but `out` is resized in place
  /// (retaining capacity) and every intermediate — subset keys, the
  /// batched RHS — lives in member scratch or the arena, so a warm
  /// steady-state decode performs zero heap allocations.
  void decode_into(linalg::Matrix& out);

  /// Parallel fill-style decode: bitwise-identical output, with the
  /// independent responder-set groups' gather/solve/scatter fanned out
  /// over `pool` (help-first member parallel_for, so it composes with
  /// outer sharding). Cache lookups — whose hit/miss order is
  /// fingerprinted telemetry — and arena RHS allocation run serially in
  /// group order first; each parallel task then touches only its own
  /// group's RHS span, disjoint output rows, and per-task solve scratch.
  /// Falls back to the serial decode when `pool` is null, there is only
  /// one group, or the context backend has no concurrency-safe solve
  /// (Vandermonde / LT).
  void decode_into(linalg::Matrix& out, util::ThreadPool* pool);

  /// Byzantine verification-and-voting pass (docs/DESIGN.md §7): every
  /// chunk holding more than k results is residual-checked through the
  /// decode context; on failure the corrupted responders are identified by
  /// minimal exclusion-set enumeration (set sizes 1..r-k-1, smallest
  /// first — sound for up to r-k-1 corruptions since at least one
  /// redundant row must remain to confirm the survivors' consistency).
  /// A responder convicted on any chunk is distrusted everywhere: all of
  /// its submissions are dropped, so decode() then runs from clean rows
  /// only. Throws std::runtime_error when no exclusion set restores
  /// consistency or when pruning would leave a chunk below k responders.
  [[nodiscard]] ChunkVerification verify_chunks(double tolerance);

  /// Distinct responder sets resident in the decode context's cache (for a
  /// private context: the sets this decoder factorized).
  [[nodiscard]] std::size_t lu_cache_size() const noexcept {
    return context_->stats().entries;
  }

  /// The context solves go through (owned or borrowed).
  [[nodiscard]] DecodeContext& context() noexcept { return *context_; }

  /// Drops every staged result and rewinds the arena (retaining its
  /// blocks); spans from stage_chunk are invalidated. The overload taking
  /// `width` also re-shapes the decoder for a new RHS width, so one
  /// persistent decoder serves every round of an engine regardless of the
  /// round's block width.
  void reset();
  void reset(std::size_t width);

 private:
  /// One same-responder-set chunk run of the parallel decode: chunks
  /// [begin, end), the group's arena-backed batched RHS, and its prepared
  /// cache entry.
  struct DecodeGroup {
    std::size_t begin;
    std::size_t end;
    std::span<double> rhs;
    DecodeContext::Prepared prepared;
  };

  [[nodiscard]] std::size_t chunk_values() const noexcept {
    return rows_per_chunk_ * width_;
  }

  /// Computes keys_ (per-chunk sorted first-k responder subsets) and
  /// sizes `out`; shared prologue of both decode_into overloads.
  void prepare_decode(linalg::Matrix& out);

  /// One group's gather / prepared-solve / scatter, using task-local
  /// scratch only — safe to run concurrently across distinct groups.
  void decode_group(const DecodeGroup& group, std::size_t chunk_cols,
                    linalg::Matrix& out) const;

  const GeneratorMatrix& generator_;
  std::size_t rows_per_chunk_;
  std::size_t num_chunks_;
  std::size_t width_;
  // per chunk: (worker, values) in arrival order; values are
  // rows_per_chunk x width row-major in arena_ storage.
  std::vector<std::vector<std::pair<std::size_t, double*>>> results_;
  util::Arena arena_;
  std::unique_ptr<DecodeContext> owned_context_;
  DecodeContext* context_;
  // decode_into scratch (per-chunk subset keys), reused across rounds.
  std::vector<std::vector<std::size_t>> keys_;
  // (worker, chunk) staged flags, n x num_chunks: O(1) duplicate detection
  // in stage_chunk instead of an O(responders) slot scan — at n = 1000
  // that scan was the round loop's hottest non-kernel cost. Flags stay set
  // when verify_chunks prunes a convicted responder, which is fine: no
  // staging happens after verification within a round.
  std::vector<std::uint8_t> staged_;
  // decode_into scratch: worker id -> slot position for the chunk being
  // gathered (sentinel npos when absent), replacing a per-responder linear
  // slot search.
  std::vector<std::size_t> slot_pos_;
  // parallel decode_into scratch (capacity retained across rounds).
  std::vector<DecodeGroup> groups_;
};

}  // namespace s2c2::coding
