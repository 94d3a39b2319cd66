// External-memory model: word-addressable storage with access statistics.
//
// All DRAM traffic is in 16-bit words (features are 12-bit stored in 16;
// weights are 8-bit raw but 12/16-bit after the offline Winograd transform,
// so the uniform 16-bit word keeps the port math of paper Eqs. 8-11 simple —
// bandwidth is counted in elements, as the paper does).
#ifndef HDNN_MEM_DRAM_MODEL_H_
#define HDNN_MEM_DRAM_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

namespace hdnn {

/// One armed corruption fault (fault injection, common/fault.h): once the
/// model's cumulative functional access count (words_read + words_written)
/// reaches `after_total_words`, the next access flips the stored word at
/// `addr % size_words()` with `xor_mask`. Fires exactly once. Models a bad
/// cell / disturbed row, so armed faults survive Reset() — they belong to
/// the device, not to its contents — but access counters restart at Reset,
/// so thresholds are relative to the current inference epoch. A Runtime
/// that finds a fault armed takes its full zero-and-stage path (it does not
/// keep its resident weight image), so an epoch's traffic, and with it a
/// threshold measured on a cold Execute, is the same on a warm Runtime.
struct DramFault {
  std::int64_t after_total_words = 0;
  std::int64_t addr = 0;
  std::uint16_t xor_mask = 1;
};

class DramModel {
 public:
  explicit DramModel(std::int64_t words);

  /// Re-sizes to `words` and zeroes the contents from `keep_words` on,
  /// reusing the existing backing store when capacity allows (serving
  /// runtimes Reset one persistent DramModel per inference instead of
  /// reallocating). The prefix [0, keep_words) keeps its contents: a
  /// Runtime keeps its resident weight image there and zeroes only the
  /// fmap slots. `keep_words` may not exceed the current or the new size.
  /// Also resets the access statistics.
  void Reset(std::int64_t words, std::int64_t keep_words = 0);

  std::int64_t size_words() const {
    return static_cast<std::int64_t>(words_.size());
  }

  /// One-word read: the SAVE stage's cross-layout residual operand, which
  /// is strided by construction. Counts one word read.
  std::int16_t Read(std::int64_t addr) const;

  // --- Bulk span views (the simulator's LOAD/SAVE datapath) ---
  //
  // Each validates the whole transaction's range [addr, addr + words) once
  // and returns a span directly over the backing store, so the caller's copy
  // micro-kernels run at memcpy speed with no per-word bounds checks.
  // ReadRun/WriteRun advance the statistics by the run length. Zero-length
  // runs are explicitly legal at any addr in [0, size_words()] and touch
  // neither storage nor stats. Spans are invalidated by Reset().

  /// Validated read transaction: counts `words` read.
  std::span<const std::int16_t> ReadRun(std::int64_t addr,
                                        std::int64_t words) const;
  /// Validated write transaction: counts `words` written; the caller fills
  /// the returned span (every word is considered written, as the SAVE
  /// datapath always produces the full run).
  std::span<std::int16_t> WriteRun(std::int64_t addr, std::int64_t words);
  /// Validated view with no statistics side effect (host-side inspection
  /// and tests; functional-traffic accounting must use ReadRun/WriteRun).
  std::span<const std::int16_t> ViewRun(std::int64_t addr,
                                        std::int64_t words) const;

  // Statistics (functional accesses; the timing model accounts bandwidth
  // separately at transaction granularity).
  std::int64_t words_read() const { return words_read_; }
  std::int64_t words_written() const { return words_written_; }

  // --- Fault injection hook (chaos testing; see DramFault above) ---
  //
  // The armed list is checked on every access-counting path (Read,
  // ReadRun/WriteRun — ViewRun takes no stats and triggers nothing), after
  // the statistics bump, so a fault armed at threshold N fires on the
  // access that carries the count to >= N. With nothing armed the hook is
  // a single empty-vector branch per transaction.
  void ArmFault(const DramFault& fault);
  void ClearFaults();
  /// Armed faults not yet fired / fired since the last ClearFaults.
  int armed_faults() const;
  std::int64_t injected_faults() const { return injected_; }

 private:
  void MaybeInject() const;

  /// `words_` is mutable because faults fire on the (const) read path too —
  /// corrupting storage during a read is the point of modeling disturb
  /// errors. Plain reads never mutate when no fault is armed.
  mutable std::vector<std::int16_t> words_;
  mutable std::int64_t words_read_ = 0;
  std::int64_t words_written_ = 0;
  mutable std::vector<DramFault> faults_;
  mutable std::int64_t injected_ = 0;
};

/// The bias word format: an int32 stored as two little-endian 16-bit DRAM
/// words, low word first. Weight packing stores it and LOAD_BIAS loads it.
inline void StoreWordPair(std::int16_t* dst, std::int32_t value) {
  const auto u = static_cast<std::uint32_t>(value);
  dst[0] = static_cast<std::int16_t>(u & 0xffff);
  dst[1] = static_cast<std::int16_t>(u >> 16);
}

inline std::int32_t LoadWordPair(const std::int16_t* src) {
  const auto lo = static_cast<std::uint16_t>(src[0]);
  const auto hi = static_cast<std::uint16_t>(src[1]);
  return static_cast<std::int32_t>((static_cast<std::uint32_t>(hi) << 16) |
                                   lo);
}

}  // namespace hdnn

#endif  // HDNN_MEM_DRAM_MODEL_H_
