#include "mem/dram_model.h"

#include <algorithm>

#include "common/check.h"

namespace hdnn {

DramModel::DramModel(std::int64_t words) {
  // Validate before sizing the backing store: a negative `words` cast to
  // size_t would request a ~2^64-element allocation and die in bad_alloc
  // before the precondition check could fire.
  HDNN_CHECK(words > 0) << "DRAM size must be positive";
  words_.assign(static_cast<std::size_t>(words), 0);
}

void DramModel::Reset(std::int64_t words, std::int64_t keep_words) {
  HDNN_CHECK(words > 0) << "DRAM size must be positive";
  HDNN_CHECK(keep_words >= 0 && keep_words <= std::min(words, size_words()))
      << "cannot keep " << keep_words << " words across a reset from "
      << size_words() << " to " << words << " words";
  words_.resize(static_cast<std::size_t>(words));
  std::fill(words_.begin() + static_cast<std::ptrdiff_t>(keep_words),
            words_.end(), 0);
  words_read_ = 0;
  words_written_ = 0;
}

std::int16_t DramModel::Read(std::int64_t addr) const {
  HDNN_CHECK(addr >= 0 && addr < size_words())
      << "DRAM read out of range: " << addr << " / " << size_words();
  ++words_read_;
  if (!faults_.empty()) MaybeInject();
  return words_[static_cast<std::size_t>(addr)];
}

std::span<const std::int16_t> DramModel::ReadRun(std::int64_t addr,
                                                 std::int64_t words) const {
  const std::span<const std::int16_t> run = ViewRun(addr, words);
  words_read_ += words;
  if (!faults_.empty()) MaybeInject();
  return run;
}

std::span<std::int16_t> DramModel::WriteRun(std::int64_t addr,
                                            std::int64_t words) {
  // Same validation as ViewRun, but the span must be mutable.
  HDNN_CHECK(words >= 0 && addr >= 0 && addr + words <= size_words())
      << "DRAM run [" << addr << ", " << addr + words << ") out of range 0../"
      << size_words();
  words_written_ += words;
  if (!faults_.empty()) MaybeInject();
  if (words == 0) return {};
  return {words_.data() + static_cast<std::size_t>(addr),
          static_cast<std::size_t>(words)};
}

std::span<const std::int16_t> DramModel::ViewRun(std::int64_t addr,
                                                 std::int64_t words) const {
  HDNN_CHECK(words >= 0 && addr >= 0 && addr + words <= size_words())
      << "DRAM run [" << addr << ", " << addr + words << ") out of range 0../"
      << size_words();
  if (words == 0) return {};
  return {words_.data() + static_cast<std::size_t>(addr),
          static_cast<std::size_t>(words)};
}

void DramModel::ArmFault(const DramFault& fault) {
  HDNN_CHECK(fault.after_total_words >= 0)
      << "fault threshold must be non-negative, got "
      << fault.after_total_words;
  HDNN_CHECK(fault.addr >= 0) << "fault addr must be non-negative, got "
                              << fault.addr;
  HDNN_CHECK(fault.xor_mask != 0) << "fault xor_mask of 0 flips nothing";
  faults_.push_back(fault);
}

void DramModel::ClearFaults() {
  faults_.clear();
  injected_ = 0;
}

int DramModel::armed_faults() const {
  return static_cast<int>(faults_.size());
}

void DramModel::MaybeInject() const {
  const std::int64_t total = words_read_ + words_written_;
  for (std::size_t i = 0; i < faults_.size();) {
    if (total >= faults_[i].after_total_words) {
      const auto addr =
          static_cast<std::size_t>(faults_[i].addr % size_words());
      words_[addr] = static_cast<std::int16_t>(
          static_cast<std::uint16_t>(words_[addr]) ^ faults_[i].xor_mask);
      ++injected_;
      faults_.erase(faults_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

}  // namespace hdnn
