#include "src/coding/chunked_decoder.h"

#include <algorithm>
#include <stdexcept>

#include "src/util/require.h"
#include "src/util/thread_pool.h"

namespace s2c2::coding {

namespace {
constexpr std::size_t npos = static_cast<std::size_t>(-1);
}  // namespace

ChunkedDecoder::ChunkedDecoder(const GeneratorMatrix& generator,
                               std::size_t rows_per_partition,
                               std::size_t num_chunks, std::size_t width,
                               DecodeContext* context)
    : generator_(generator), num_chunks_(num_chunks), width_(width) {
  S2C2_REQUIRE(num_chunks > 0, "decoder needs at least one chunk");
  S2C2_REQUIRE(rows_per_partition % num_chunks == 0,
               "rows_per_partition must be divisible by num_chunks");
  S2C2_REQUIRE(width > 0, "width must be positive");
  rows_per_chunk_ = rows_per_partition / num_chunks;
  results_.resize(num_chunks_);
  staged_.assign(generator_.n() * num_chunks_, 0);
  if (context) {
    context_ = context;
  } else {
    owned_context_ = std::make_unique<DecodeContext>(generator_);
    context_ = owned_context_.get();
  }
}

std::span<double> ChunkedDecoder::stage_chunk(std::size_t worker,
                                              std::size_t chunk) {
  S2C2_REQUIRE(worker < generator_.n(), "worker index out of range");
  S2C2_REQUIRE(chunk < num_chunks_, "chunk index out of range");
  if (staged_[chunk * generator_.n() + worker]) return {};  // idempotent
  return stage_run(worker, chunk, 1);
}

std::span<double> ChunkedDecoder::stage_run(std::size_t worker,
                                            std::size_t first,
                                            std::size_t count) {
  S2C2_REQUIRE(worker < generator_.n(), "worker index out of range");
  S2C2_REQUIRE(count > 0 && first < num_chunks_ &&
                   count <= num_chunks_ - first,
               "chunk run out of range");
  for (std::size_t c = first; c < first + count; ++c) {
    S2C2_REQUIRE(!staged_[c * generator_.n() + worker],
                 "chunk run overlaps an already staged slot");
  }
  const std::span<double> values =
      arena_.alloc_span<double>(count * chunk_values());
  for (std::size_t i = 0; i < count; ++i) {
    staged_[(first + i) * generator_.n() + worker] = 1;
    results_[first + i].emplace_back(worker,
                                     values.data() + i * chunk_values());
  }
  return values;
}

void ChunkedDecoder::add_chunk_result(std::size_t worker, std::size_t chunk,
                                      std::span<const double> values) {
  S2C2_REQUIRE(values.size() == chunk_values(),
               "chunk result has wrong size");
  const std::span<double> dst = stage_chunk(worker, chunk);
  if (!dst.empty()) std::copy(values.begin(), values.end(), dst.begin());
}

bool ChunkedDecoder::decodable() const {
  const std::size_t k = generator_.k();
  return std::all_of(results_.begin(), results_.end(),
                     [k](const auto& slot) { return slot.size() >= k; });
}

std::vector<std::size_t> ChunkedDecoder::deficient_chunks() const {
  const std::size_t k = generator_.k();
  std::vector<std::size_t> out;
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    if (results_[c].size() < k) out.push_back(c);
  }
  return out;
}

std::vector<std::size_t> ChunkedDecoder::responders(std::size_t chunk) const {
  S2C2_REQUIRE(chunk < num_chunks_, "chunk index out of range");
  std::vector<std::size_t> out;
  out.reserve(results_[chunk].size());
  for (const auto& [w, _] : results_[chunk]) out.push_back(w);
  return out;
}

linalg::Matrix ChunkedDecoder::decode() {
  linalg::Matrix out;
  decode_into(out);
  return out;
}

void ChunkedDecoder::prepare_decode(linalg::Matrix& out) {
  const std::size_t k = generator_.k();
  S2C2_CHECK(decodable(), "decode() called before coverage reached k");
  out.resize(k * rows_per_chunk_ * num_chunks_, width_);

  // Per-chunk decode subsets: the first k responders (arrival order),
  // sorted so identical membership yields an identical cache key.
  keys_.resize(num_chunks_);
  for (std::size_t chunk = 0; chunk < num_chunks_; ++chunk) {
    keys_[chunk].resize(k);
    for (std::size_t j = 0; j < k; ++j) {
      keys_[chunk][j] = results_[chunk][j].first;
    }
    std::sort(keys_[chunk].begin(), keys_[chunk].end());
  }
}

void ChunkedDecoder::decode_into(linalg::Matrix& out) {
  const std::size_t k = generator_.k();
  prepare_decode(out);
  const std::size_t chunk_cols = rows_per_chunk_ * width_;

  // Batched multi-RHS decode: consecutive chunks sharing a responder set
  // are one solve against the cached factorization — RHS row j carries
  // worker key[j]'s values for every chunk of the run, side by side. The
  // RHS is arena-backed: same lifetime as the staged chunk values, so a
  // steady-state round stays off the heap.
  for (std::size_t begin = 0; begin < num_chunks_;) {
    std::size_t end = begin + 1;
    while (end < num_chunks_ && keys_[end] == keys_[begin]) ++end;
    const std::vector<std::size_t>& key = keys_[begin];
    const std::size_t group = end - begin;

    const std::size_t rhs_cols = group * chunk_cols;
    const std::span<double> rhs = arena_.alloc_span<double>(k * rhs_cols);
    for (std::size_t chunk = begin; chunk < end; ++chunk) {
      const auto& slot = results_[chunk];
      // Index the chunk's first-k slot positions by worker id so the
      // gather below is O(k), not an O(k) search per responder (the key is
      // exactly those k workers, sorted).
      slot_pos_.assign(generator_.n(), npos);
      for (std::size_t j = 0; j < k; ++j) slot_pos_[slot[j].first] = j;
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t pos = slot_pos_[key[j]];
        S2C2_CHECK(pos != npos, "responder disappeared");
        std::copy(slot[pos].second, slot[pos].second + chunk_cols,
                  rhs.begin() +
                      static_cast<std::ptrdiff_t>(j * rhs_cols +
                                                  (chunk - begin) *
                                                      chunk_cols));
      }
    }
    context_->solve_inplace(key, rhs, rhs_cols);

    // rhs row i now holds (A_i x) over the run's rows; scatter to output.
    for (std::size_t chunk = begin; chunk < end; ++chunk) {
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t out_row0 =
            i * rows_per_chunk_ * num_chunks_ + chunk * rows_per_chunk_;
        for (std::size_t r = 0; r < rows_per_chunk_; ++r) {
          for (std::size_t c = 0; c < width_; ++c) {
            out(out_row0 + r, c) =
                rhs[i * rhs_cols + (chunk - begin) * chunk_cols + r * width_ +
                    c];
          }
        }
      }
    }
    begin = end;
  }
}

void ChunkedDecoder::decode_group(const DecodeGroup& group,
                                  std::size_t chunk_cols,
                                  linalg::Matrix& out) const {
  const std::size_t k = generator_.k();
  const std::size_t rhs_cols = (group.end - group.begin) * chunk_cols;
  const std::vector<std::size_t>& key = keys_[group.begin];

  // Task-local gather index and solve scratch: the member scratch
  // (slot_pos_, the context's serial scratch) is not shareable across
  // concurrent groups. These allocate, which is fine — the parallel
  // decode is an explicit inner_jobs > 1 opt-in; the inner_jobs = 1
  // contract runs the serial decode_into and stays heap-free.
  std::vector<std::size_t> slot_pos(generator_.n(), npos);
  for (std::size_t chunk = group.begin; chunk < group.end; ++chunk) {
    const auto& slot = results_[chunk];
    std::fill(slot_pos.begin(), slot_pos.end(), npos);
    for (std::size_t j = 0; j < k; ++j) slot_pos[slot[j].first] = j;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t pos = slot_pos[key[j]];
      S2C2_CHECK(pos != npos, "responder disappeared");
      std::copy(slot[pos].second, slot[pos].second + chunk_cols,
                group.rhs.begin() +
                    static_cast<std::ptrdiff_t>(j * rhs_cols +
                                                (chunk - group.begin) *
                                                    chunk_cols));
    }
  }
  DecodeContext::SolveScratch scratch;
  context_->solve_prepared(group.prepared, group.rhs, rhs_cols, scratch);
  for (std::size_t chunk = group.begin; chunk < group.end; ++chunk) {
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t out_row0 =
          i * rows_per_chunk_ * num_chunks_ + chunk * rows_per_chunk_;
      for (std::size_t r = 0; r < rows_per_chunk_; ++r) {
        for (std::size_t c = 0; c < width_; ++c) {
          out(out_row0 + r, c) =
              group.rhs[i * rhs_cols + (chunk - group.begin) * chunk_cols +
                        r * width_ + c];
        }
      }
    }
  }
}

void ChunkedDecoder::decode_into(linalg::Matrix& out, util::ThreadPool* pool) {
  if (pool == nullptr || !context_->supports_parallel_solve()) {
    decode_into(out);
    return;
  }
  const std::size_t k = generator_.k();
  prepare_decode(out);
  const std::size_t chunk_cols = rows_per_chunk_ * width_;

  // Serial phase: split the chunks into maximal same-responder-set runs,
  // allocate each run's batched RHS from the arena (not thread-safe), and
  // prepare the cached factorizations IN GROUP ORDER — the hit/miss
  // sequence this produces is exactly the serial decode's, so the
  // fingerprinted decode-cache telemetry is unchanged.
  groups_.clear();
  for (std::size_t begin = 0; begin < num_chunks_;) {
    std::size_t end = begin + 1;
    while (end < num_chunks_ && keys_[end] == keys_[begin]) ++end;
    const std::size_t rhs_cols = (end - begin) * chunk_cols;
    groups_.push_back({begin, end, arena_.alloc_span<double>(k * rhs_cols),
                       context_->prepare(keys_[begin])});
    begin = end;
  }
  if (groups_.size() == 1) {
    // One group: no cross-group parallelism to exploit; run the serial
    // gather/solve/scatter on the already-prepared entry.
    const DecodeGroup& g = groups_.front();
    decode_group(g, chunk_cols, out);
    return;
  }

  // Parallel phase: each task owns one group — its RHS span, its output
  // rows (chunk-disjoint across groups), and task-local solve scratch.
  // The shared cache entries are read-only here, so any interleaving
  // produces the serial bits.
  pool->parallel_for(groups_.size(), [&](std::size_t gi) {
    decode_group(groups_[gi], chunk_cols, out);
  });
}

ChunkVerification ChunkedDecoder::verify_chunks(double tolerance) {
  const std::size_t k = generator_.k();
  ChunkVerification out;

  // Scratch for (subset, rhs) assembly over a chunk's responder slot,
  // optionally skipping an exclusion set of slot positions. Residuals are
  // checked one RHS column at a time — each column is normalized against
  // its own magnitude, so a large column cannot mask corruption in a small
  // one — and the per-column maxima are combined. At width 1 the single
  // column is the whole panel, so the b=1 path is bit-for-bit unchanged.
  std::vector<std::size_t> order;   // slot positions sorted by worker id
  std::vector<std::size_t> subset;
  std::vector<double> rhs;
  const auto residual_excluding =
      [&](const std::vector<std::pair<std::size_t, double*>>& slot,
          const std::vector<std::size_t>& excluded_pos) {
        subset.clear();
        for (const std::size_t pos : order) {
          if (std::find(excluded_pos.begin(), excluded_pos.end(), pos) !=
              excluded_pos.end()) {
            continue;
          }
          subset.push_back(slot[pos].first);
        }
        double max_col_residual = 0.0;
        for (std::size_t col = 0; col < width_; ++col) {
          rhs.clear();
          for (const std::size_t pos : order) {
            if (std::find(excluded_pos.begin(), excluded_pos.end(), pos) !=
                excluded_pos.end()) {
              continue;
            }
            const double* values = slot[pos].second;
            for (std::size_t r = 0; r < rows_per_chunk_; ++r) {
              rhs.push_back(values[r * width_ + col]);
            }
          }
          max_col_residual = std::max(
              max_col_residual,
              context_->redundant_residual(subset, rhs, rows_per_chunk_));
        }
        return max_col_residual;
      };

  for (std::size_t chunk = 0; chunk < num_chunks_; ++chunk) {
    const auto& slot = results_[chunk];
    const std::size_t r = slot.size();
    if (r <= k) continue;  // no redundancy: nothing to verify
    order.resize(r);
    for (std::size_t i = 0; i < r; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&slot](std::size_t a, std::size_t b) {
                return slot[a].first < slot[b].first;
              });
    ++out.verified_chunks;
    const double res = residual_excluding(slot, {});
    if (res <= tolerance) {
      out.max_clean_residual = std::max(out.max_clean_residual, res);
      continue;
    }
    ++out.corrupted_chunks;
    // Minimal exclusion-set search: smallest consistent exclusion wins.
    // The budget r - k - 1 keeps >= k + 1 survivors, so consistency is
    // confirmed by at least one genuinely redundant row, never vacuously.
    bool identified = false;
    const std::size_t budget = r - k - 1;
    std::vector<std::size_t> excl;
    for (std::size_t e = 1; e <= budget && !identified; ++e) {
      excl.assign(e, 0);
      for (std::size_t i = 0; i < e; ++i) excl[i] = i;
      while (true) {
        if (residual_excluding(slot, excl) <= tolerance) {
          for (const std::size_t pos : excl) {
            out.corrupt_workers.push_back(slot[pos].first);
          }
          identified = true;
          break;
        }
        // Next lexicographic e-combination of {0..r-1}.
        std::size_t i = e;
        while (i-- > 0) {
          if (excl[i] + (e - i) < r) {
            ++excl[i];
            for (std::size_t j = i + 1; j < e; ++j) excl[j] = excl[j - 1] + 1;
            break;
          }
          if (i == 0) goto exhausted;
        }
      }
    exhausted:;
    }
    if (!identified) {
      throw std::runtime_error(
          "cluster failure: byzantine corruption unidentifiable — no "
          "consistent responder subset within the redundancy budget");
    }
  }

  // Voting: a responder convicted on any chunk is distrusted everywhere.
  std::sort(out.corrupt_workers.begin(), out.corrupt_workers.end());
  out.corrupt_workers.erase(
      std::unique(out.corrupt_workers.begin(), out.corrupt_workers.end()),
      out.corrupt_workers.end());
  if (!out.corrupt_workers.empty()) {
    for (std::size_t chunk = 0; chunk < num_chunks_; ++chunk) {
      auto& slot = results_[chunk];
      slot.erase(std::remove_if(slot.begin(), slot.end(),
                                [&out](const auto& p) {
                                  return std::binary_search(
                                      out.corrupt_workers.begin(),
                                      out.corrupt_workers.end(), p.first);
                                }),
                 slot.end());
      if (slot.size() < k) {
        throw std::runtime_error(
            "cluster failure: byzantine pruning left a chunk below k "
            "responders");
      }
    }
  }
  return out;
}

void ChunkedDecoder::reset() {
  for (auto& slot : results_) slot.clear();
  staged_.assign(generator_.n() * num_chunks_, 0);
  arena_.reset();
}

void ChunkedDecoder::reset(std::size_t width) {
  S2C2_REQUIRE(width > 0, "width must be positive");
  width_ = width;
  reset();
}

}  // namespace s2c2::coding
