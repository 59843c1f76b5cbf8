#include "src/stats/gtest_stat.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <istream>
#include <ostream>

#include "src/common/bitops.hpp"
#include "src/common/check.hpp"
#include "src/common/serialize.hpp"
#include "src/stats/pvalue.hpp"

namespace sca::stats {

void ContingencyTable::add(std::uint64_t key, int group, std::uint64_t count) {
  SCA_ASSERT(group == 0 || group == 1, "ContingencyTable: group must be 0/1");
  if (counts_.size() >= bin_limit_ && !counts_.contains(key))
    key = kOverflowKey;
  counts_[key][static_cast<std::size_t>(group)] += count;
}

void ContingencyTable::merge(const ContingencyTable& other) {
  if (counts_.size() + other.counts_.size() <= bin_limit_) {
    // Pooling cannot trigger: plain key-wise addition.
    for (const auto& [key, cnt] : other.counts_) {
      auto& mine = counts_[key];
      mine[0] += cnt[0];
      mine[1] += cnt[1];
    }
    return;
  }
  // The bin limit may force pooling during this merge. Visit the incoming
  // keys in sorted order so *which* keys overflow is a pure function of the
  // accumulated contents — never of hash-map iteration order — keeping
  // parallel campaigns bit-identical across thread counts.
  std::vector<std::uint64_t> keys;
  keys.reserve(other.counts_.size());
  for (const auto& [key, cnt] : other.counts_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (std::uint64_t key : keys) {
    const auto& cnt = other.counts_.at(key);
    if (cnt[0]) add(key, 0, cnt[0]);
    if (cnt[1]) add(key, 1, cnt[1]);
  }
}

void ContingencyTable::merge(const FlatCountTable& other) {
  const std::size_t incoming = other.bin_count();
  if (incoming == 0) return;
  if (counts_.size() + incoming <= bin_limit_) {
    // Pooling cannot trigger: plain key-wise addition, any visit order.
    if (other.direct_bits_ >= 0) {
      const std::size_t space = std::size_t{1} << other.direct_bits_;
      for (std::size_t key = 0; key < space; ++key) {
        const std::uint64_t c0 = other.direct_counts_[2 * key];
        const std::uint64_t c1 = other.direct_counts_[2 * key + 1];
        if (c0 == 0 && c1 == 0) continue;
        auto& mine = counts_[key];
        mine[0] += c0;
        mine[1] += c1;
      }
    } else {
      for (std::size_t slot = 0; slot < other.keys_.size(); ++slot) {
        if (other.keys_[slot] == FlatCountTable::kEmptySlot) continue;
        auto& mine = counts_[other.keys_[slot]];
        mine[0] += other.counts_[2 * slot];
        mine[1] += other.counts_[2 * slot + 1];
      }
    }
    if (other.overflow_used_) {
      auto& mine = counts_[FlatCountTable::kOverflowKey];
      mine[0] += other.overflow_[0];
      mine[1] += other.overflow_[1];
    }
    return;
  }
  // The bin limit may force pooling: ascending key order, exactly like
  // merge(const ContingencyTable&). Direct mode is ascending by layout; the
  // overflow bin (kOverflowKey == ~0) always sorts last.
  auto add_pair = [&](std::uint64_t key, std::uint64_t c0, std::uint64_t c1) {
    if (c0) add(key, 0, c0);
    if (c1) add(key, 1, c1);
  };
  if (other.direct_bits_ >= 0) {
    const std::size_t space = std::size_t{1} << other.direct_bits_;
    for (std::size_t key = 0; key < space; ++key)
      add_pair(key, other.direct_counts_[2 * key],
               other.direct_counts_[2 * key + 1]);
  } else {
    std::vector<std::size_t> slots;
    slots.reserve(other.used_slots_);
    for (std::size_t slot = 0; slot < other.keys_.size(); ++slot)
      if (other.keys_[slot] != FlatCountTable::kEmptySlot) slots.push_back(slot);
    std::sort(slots.begin(), slots.end(),
              [&](std::size_t a, std::size_t b) {
                return other.keys_[a] < other.keys_[b];
              });
    for (std::size_t slot : slots)
      add_pair(other.keys_[slot], other.counts_[2 * slot],
               other.counts_[2 * slot + 1]);
  }
  if (other.overflow_used_)
    add_pair(FlatCountTable::kOverflowKey, other.overflow_[0],
             other.overflow_[1]);
}

std::uint64_t ContingencyTable::group_total(int group) const {
  SCA_ASSERT(group == 0 || group == 1, "ContingencyTable: group must be 0/1");
  std::uint64_t total = 0;
  for (const auto& [key, cnt] : counts_)
    total += cnt[static_cast<std::size_t>(group)];
  return total;
}

GTestResult g_test_columns(const std::vector<std::array<std::uint64_t, 2>>& cols,
                           double min_expected) {
  GTestResult result;
  std::uint64_t n0 = 0, n1 = 0;
  for (const auto& c : cols) {
    n0 += c[0];
    n1 += c[1];
  }
  result.n_fixed = n0;
  result.n_random = n1;
  const double n = static_cast<double>(n0 + n1);
  if (n0 == 0 || n1 == 0 || cols.size() < 2) {
    // One group empty or a single bin: no evidence of dependence.
    result.bins = cols.size();
    result.df = 0;
    result.minus_log10_p = 0.0;
    return result;
  }

  // Pool low-expectation columns into one residual column so the chi-squared
  // null stays a good approximation for the G statistic. A column pools
  // when its expected count in the smaller group, col_total * min(n0, n1) /
  // n in floating point, is below min_expected. That expression never
  // decreases as col_total grows, so the kept columns are exactly those at
  // or above the smallest total it accepts — found once by bisection over
  // the very same expression instead of a multiply and divide per column.
  const double min_group = static_cast<double>(std::min(n0, n1));
  const auto pools = [&](std::uint64_t col_total) {
    return static_cast<double>(col_total) * min_group / n < min_expected;
  };
  std::uint64_t keep_from = 0;
  for (std::uint64_t hi = n0 + n1 + 1; keep_from < hi;) {
    const std::uint64_t mid = keep_from + (hi - keep_from) / 2;
    if (pools(mid))
      keep_from = mid + 1;
    else
      hi = mid;
  }

  // One pass in column order; the residual column comes last, as if
  // appended after the kept ones.
  double g = 0.0;
  double sum_inv_col = 0.0;
  const auto add_column = [&](std::uint64_t c0, std::uint64_t c1) {
    const double col_total = static_cast<double>(c0 + c1);
    sum_inv_col += 1.0 / col_total;
    const double e0 = col_total * static_cast<double>(n0) / n;
    const double e1 = col_total * static_cast<double>(n1) / n;
    if (c0 > 0) g += static_cast<double>(c0) *
                     std::log(static_cast<double>(c0) / e0);
    if (c1 > 0) g += static_cast<double>(c1) *
                     std::log(static_cast<double>(c1) / e1);
  };
  std::array<std::uint64_t, 2> residual{0, 0};
  bool residual_used = false;
  std::size_t kept = 0;
  for (const auto& c : cols) {
    if (c[0] + c[1] < keep_from) {
      residual[0] += c[0];
      residual[1] += c[1];
      residual_used = true;
    } else {
      add_column(c[0], c[1]);
      ++kept;
    }
  }
  if (residual_used) add_column(residual[0], residual[1]);

  const std::size_t bins = kept + (residual_used ? 1 : 0);
  result.bins = bins;
  if (bins < 2) {
    result.df = 0;
    result.minus_log10_p = 0.0;
    return result;
  }

  g *= 2.0;
  if (g < 0.0) g = 0.0;  // guard tiny negative rounding noise

  // Williams correction: with many sparse columns (expected counts near the
  // pooling threshold) the raw G statistic is biased a few percent above its
  // chi-squared null, which at tens of thousands of degrees of freedom is
  // enough to cross any fixed significance threshold. The correction removes
  // that bias and is negligible (q ~ 1) for the gross leaks we care about.
  const double df = static_cast<double>(bins - 1);
  const double row_term =
      n * (1.0 / static_cast<double>(n0) + 1.0 / static_cast<double>(n1)) - 1.0;
  const double col_term = n * sum_inv_col - 1.0;
  const double q = 1.0 + row_term * col_term / (6.0 * n * df);
  if (q > 1.0) g /= q;

  result.g = g;
  result.df = bins - 1;
  result.minus_log10_p = chi2_minus_log10_p(g, result.df);
  return result;
}

GTestResult ContingencyTable::g_test(double min_expected) const {
  std::vector<std::array<std::uint64_t, 2>> cols;
  cols.reserve(counts_.size());
  for (const auto& [key, cnt] : counts_) cols.push_back(cnt);
  return g_test_columns(cols, min_expected);
}

void ContingencyTable::serialize(std::ostream& os) const {
  common::write_u64(os, bin_limit_);
  std::vector<std::uint64_t> keys;
  keys.reserve(counts_.size());
  for (const auto& [key, cnt] : counts_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  common::write_u64(os, keys.size());
  for (std::uint64_t key : keys) {
    const auto& cnt = counts_.at(key);
    common::write_u64(os, key);
    common::write_u64(os, cnt[0]);
    common::write_u64(os, cnt[1]);
  }
}

ContingencyTable ContingencyTable::deserialize(std::istream& is) {
  ContingencyTable table;
  table.bin_limit_ = common::read_u64(is);
  const std::uint64_t nkeys = common::read_u64(is);
  // A saturated table holds bin_limit_ resident keys plus the overflow bin
  // (the add() pooling check fires strictly after the limit is reached).
  common::require(nkeys == 0 || nkeys - 1 <= table.bin_limit_,
                  "ContingencyTable: snapshot exceeds its own bin limit");
  table.counts_.reserve(static_cast<std::size_t>(nkeys));
  for (std::uint64_t i = 0; i < nkeys; ++i) {
    const std::uint64_t key = common::read_u64(is);
    const std::uint64_t c0 = common::read_u64(is);
    const std::uint64_t c1 = common::read_u64(is);
    common::require(table.counts_.emplace(key, std::array<std::uint64_t, 2>{
                                                   c0, c1}).second,
                    "ContingencyTable: duplicate key in snapshot");
  }
  return table;
}

bool ContingencyTable::operator==(const ContingencyTable& other) const {
  return bin_limit_ == other.bin_limit_ && counts_ == other.counts_;
}

// --- FlatCountTable -----------------------------------------------------------

void FlatCountTable::init_direct(unsigned key_bits) {
  SCA_ASSERT(direct_bits_ < 0 && used_slots_ == 0 && !overflow_used_,
             "FlatCountTable: init_direct on a non-empty table");
  SCA_ASSERT(key_bits <= 30, "FlatCountTable: direct key space too large");
  SCA_ASSERT((std::size_t{1} << key_bits) <= bin_limit_,
             "FlatCountTable: direct key space exceeds the bin limit");
  direct_bits_ = static_cast<int>(key_bits);
  direct_counts_.assign(std::size_t{2} << key_bits, 0);
}

void FlatCountTable::set_bin_limit(std::size_t limit) {
  SCA_ASSERT(direct_bits_ < 0 ||
                 (std::size_t{1} << direct_bits_) <= limit,
             "FlatCountTable: bin limit below the direct key space");
  bin_limit_ = limit;
}

void FlatCountTable::reserve(std::size_t expected_keys) {
  if (direct_bits_ >= 0) return;
  std::size_t cap = 64;
  while (cap < 2 * expected_keys) cap <<= 1;
  if (cap <= keys_.size()) return;
  std::vector<std::uint64_t> old_keys = std::move(keys_);
  std::vector<std::uint64_t> old_counts = std::move(counts_);
  keys_.assign(cap, kEmptySlot);
  counts_.assign(2 * cap, 0);
  capacity_mask_ = cap - 1;
  hash_shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
  for (std::size_t slot = 0; slot < old_keys.size(); ++slot) {
    if (old_keys[slot] == kEmptySlot) continue;
    const std::size_t dst = find_slot(old_keys[slot]);
    keys_[dst] = old_keys[slot];
    counts_[2 * dst] = old_counts[2 * slot];
    counts_[2 * dst + 1] = old_counts[2 * slot + 1];
  }
}

std::size_t FlatCountTable::find_slot(std::uint64_t key) const {
  std::size_t slot =
      static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> hash_shift_);
  while (keys_[slot] != kEmptySlot && keys_[slot] != key)
    slot = (slot + 1) & capacity_mask_;
  return slot;
}

void FlatCountTable::grow() {
  const std::size_t cap = keys_.empty() ? 64 : 2 * keys_.size();
  std::vector<std::uint64_t> old_keys = std::move(keys_);
  std::vector<std::uint64_t> old_counts = std::move(counts_);
  keys_.assign(cap, kEmptySlot);
  counts_.assign(2 * cap, 0);
  capacity_mask_ = cap - 1;
  hash_shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
  for (std::size_t slot = 0; slot < old_keys.size(); ++slot) {
    if (old_keys[slot] == kEmptySlot) continue;
    const std::size_t dst = find_slot(old_keys[slot]);
    keys_[dst] = old_keys[slot];
    counts_[2 * dst] = old_counts[2 * slot];
    counts_[2 * dst + 1] = old_counts[2 * slot + 1];
  }
}

void FlatCountTable::add_hashed(std::uint64_t key, int group,
                                std::uint64_t count) {
  if (2 * (used_slots_ + 1) > keys_.size()) grow();
  const std::size_t slot = find_slot(key);
  if (keys_[slot] == kEmptySlot) {
    // New key: pool it once the bin limit is reached (the overflow bin
    // itself counts as one tracked bin, mirroring ContingencyTable).
    if (used_slots_ + (overflow_used_ ? 1 : 0) >= bin_limit_) {
      overflow_used_ = true;
      overflow_[static_cast<std::size_t>(group)] += count;
      return;
    }
    keys_[slot] = key;
    ++used_slots_;
  }
  counts_[2 * slot + static_cast<std::size_t>(group)] += count;
}

void FlatCountTable::add(std::uint64_t key, int group, std::uint64_t count) {
  SCA_ASSERT(group == 0 || group == 1, "FlatCountTable: group must be 0/1");
  if (direct_bits_ >= 0) {
    SCA_ASSERT(key < (std::uint64_t{1} << direct_bits_),
               "FlatCountTable: key outside the direct key space");
    direct_counts_[2 * static_cast<std::size_t>(key) +
                   static_cast<std::size_t>(group)] += count;
    return;
  }
  if (key == kOverflowKey) {
    // Routed to the dedicated overflow bin (also frees ~0 to act as the
    // empty-slot sentinel).
    overflow_used_ = true;
    overflow_[static_cast<std::size_t>(group)] += count;
    return;
  }
  add_hashed(key, group, count);
}

void FlatCountTable::add_keys64(const std::uint64_t keys[64], int group) {
  if (direct_bits_ >= 0) {
    std::uint64_t* counts = direct_counts_.data() + group;
    for (unsigned lane = 0; lane < 64; ++lane)
      counts[2 * static_cast<std::size_t>(keys[lane])] += 1;
    return;
  }
  for (unsigned lane = 0; lane < 64; ++lane) {
    const std::uint64_t key = keys[lane];
    if (key == kOverflowKey) {
      overflow_used_ = true;
      overflow_[static_cast<std::size_t>(group)] += 1;
    } else {
      add_hashed(key, group, 1);
    }
  }
}

void FlatCountTable::add_packed(const std::uint64_t rows[64],
                                unsigned key_bits, unsigned samples,
                                int group) {
  SCA_ASSERT(key_bits > 0 && samples >= 1 &&
                 static_cast<std::size_t>(key_bits) * samples <= 64,
             "FlatCountTable: packed samples exceed the 64-bit rows");
  const std::uint64_t mask =
      key_bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << key_bits) - 1;
  if (direct_bits_ >= 0) {
    SCA_ASSERT(key_bits <= static_cast<unsigned>(direct_bits_),
               "FlatCountTable: packed keys outside the direct key space");
    std::uint64_t* counts = direct_counts_.data() + group;
    for (unsigned s = 0; s < samples; ++s) {
      const unsigned shift = s * key_bits;
      for (unsigned lane = 0; lane < 64; ++lane)
        counts[2 * static_cast<std::size_t>((rows[lane] >> shift) & mask)] += 1;
    }
    return;
  }
  for (unsigned s = 0; s < samples; ++s) {
    const unsigned shift = s * key_bits;
    for (unsigned lane = 0; lane < 64; ++lane) {
      const std::uint64_t key = (rows[lane] >> shift) & mask;
      if (key == kOverflowKey) {  // only reachable for key_bits == 64
        overflow_used_ = true;
        overflow_[static_cast<std::size_t>(group)] += 1;
      } else {
        add_hashed(key, group, 1);
      }
    }
  }
}

void FlatCountTable::add_marginalized(const FlatCountTable& host,
                                      std::uint64_t key_mask) {
  SCA_ASSERT(direct_bits_ >= 0 && host.direct_bits_ >= 0,
             "FlatCountTable: marginalization requires direct mode");
  SCA_ASSERT(common::popcount64(key_mask) == direct_bits_,
             "FlatCountTable: key mask width mismatch");
  SCA_ASSERT(host.direct_bits_ >= 64 ||
                 key_mask < (std::uint64_t{1} << host.direct_bits_),
             "FlatCountTable: key mask outside the host key space");
  const std::size_t space = std::size_t{1} << host.direct_bits_;
  for (std::size_t key = 0; key < space; ++key) {
    const std::uint64_t c0 = host.direct_counts_[2 * key];
    const std::uint64_t c1 = host.direct_counts_[2 * key + 1];
    if (c0 == 0 && c1 == 0) continue;
    const std::size_t idx = static_cast<std::size_t>(
        common::extract_bits64(static_cast<std::uint64_t>(key), key_mask));
    direct_counts_[2 * idx] += c0;
    direct_counts_[2 * idx + 1] += c1;
  }
}

void FlatCountTable::merge(const FlatCountTable& other) {
  if (direct_bits_ >= 0 && other.direct_bits_ == direct_bits_) {
    // Same materialized key space: one flat integer array add.
    for (std::size_t i = 0; i < direct_counts_.size(); ++i)
      direct_counts_[i] += other.direct_counts_[i];
  } else if (other.direct_bits_ >= 0) {
    const std::size_t space = std::size_t{1} << other.direct_bits_;
    for (std::size_t key = 0; key < space; ++key) {
      const std::uint64_t c0 = other.direct_counts_[2 * key];
      const std::uint64_t c1 = other.direct_counts_[2 * key + 1];
      if (c0) add(key, 0, c0);
      if (c1) add(key, 1, c1);
    }
  } else {
    const std::size_t incoming =
        other.used_slots_ + (other.overflow_used_ ? 1 : 0);
    if (direct_bits_ >= 0 || bin_count() + incoming <= bin_limit_) {
      // Pooling cannot trigger: any visit order lands the same counts, so
      // take the slots as they come.
      for (std::size_t slot = 0; slot < other.keys_.size(); ++slot) {
        if (other.keys_[slot] == kEmptySlot) continue;
        if (other.counts_[2 * slot])
          add(other.keys_[slot], 0, other.counts_[2 * slot]);
        if (other.counts_[2 * slot + 1])
          add(other.keys_[slot], 1, other.counts_[2 * slot + 1]);
      }
    } else {
      // Pooling may trigger: sorted keys keep the merged contents a
      // function of the two tables' contents alone.
      for (std::uint64_t key : other.sorted_keys()) {
        if (key == kOverflowKey) continue;  // folded below
        const auto cnt = other.counts_for(key);
        if (cnt[0]) add(key, 0, cnt[0]);
        if (cnt[1]) add(key, 1, cnt[1]);
      }
    }
  }
  if (other.overflow_used_) {
    overflow_used_ = true;
    overflow_[0] += other.overflow_[0];
    overflow_[1] += other.overflow_[1];
  }
}

GTestResult FlatCountTable::g_test(double min_expected) const {
  std::vector<std::array<std::uint64_t, 2>> cols;
  if (direct_bits_ >= 0) {
    const std::size_t space = std::size_t{1} << direct_bits_;
    for (std::size_t key = 0; key < space; ++key)
      if (direct_counts_[2 * key] || direct_counts_[2 * key + 1])
        cols.push_back({direct_counts_[2 * key], direct_counts_[2 * key + 1]});
  } else {
    std::vector<std::uint64_t> keys;
    keys.reserve(used_slots_);
    for (std::size_t slot = 0; slot < keys_.size(); ++slot)
      if (keys_[slot] != kEmptySlot) keys.push_back(keys_[slot]);
    std::sort(keys.begin(), keys.end());
    cols.reserve(keys.size() + 1);
    for (std::uint64_t key : keys) cols.push_back(counts_for(key));
  }
  if (overflow_used_) cols.push_back(overflow_);
  return g_test_columns(cols, min_expected);
}

std::size_t FlatCountTable::bin_count() const {
  if (direct_bits_ >= 0) {
    std::size_t bins = overflow_used_ ? 1 : 0;
    const std::size_t space = std::size_t{1} << direct_bits_;
    for (std::size_t key = 0; key < space; ++key)
      if (direct_counts_[2 * key] || direct_counts_[2 * key + 1]) ++bins;
    return bins;
  }
  return used_slots_ + (overflow_used_ ? 1 : 0);
}

std::array<std::uint64_t, 2> FlatCountTable::counts_for(
    std::uint64_t key) const {
  if (key == kOverflowKey) return overflow_;
  if (direct_bits_ >= 0) {
    if (key >= (std::uint64_t{1} << direct_bits_)) return {0, 0};
    return {direct_counts_[2 * static_cast<std::size_t>(key)],
            direct_counts_[2 * static_cast<std::size_t>(key) + 1]};
  }
  if (keys_.empty()) return {0, 0};
  const std::size_t slot = find_slot(key);
  if (keys_[slot] == kEmptySlot) return {0, 0};
  return {counts_[2 * slot], counts_[2 * slot + 1]};
}

std::vector<std::uint64_t> FlatCountTable::sorted_keys() const {
  std::vector<std::uint64_t> keys;
  if (direct_bits_ >= 0) {
    const std::size_t space = std::size_t{1} << direct_bits_;
    for (std::size_t key = 0; key < space; ++key)
      if (direct_counts_[2 * key] || direct_counts_[2 * key + 1])
        keys.push_back(key);
  } else {
    keys.reserve(used_slots_);
    for (std::size_t slot = 0; slot < keys_.size(); ++slot)
      if (keys_[slot] != kEmptySlot) keys.push_back(keys_[slot]);
    std::sort(keys.begin(), keys.end());
  }
  if (overflow_used_) keys.push_back(kOverflowKey);
  return keys;
}

std::uint64_t FlatCountTable::group_total(int group) const {
  SCA_ASSERT(group == 0 || group == 1, "FlatCountTable: group must be 0/1");
  std::uint64_t total = overflow_[static_cast<std::size_t>(group)];
  if (direct_bits_ >= 0) {
    const std::size_t space = std::size_t{1} << direct_bits_;
    for (std::size_t key = 0; key < space; ++key)
      total += direct_counts_[2 * key + static_cast<std::size_t>(group)];
  } else {
    for (std::size_t slot = 0; slot < keys_.size(); ++slot)
      if (keys_[slot] != kEmptySlot)
        total += counts_[2 * slot + static_cast<std::size_t>(group)];
  }
  return total;
}

void FlatCountTable::serialize(std::ostream& os) const {
  common::write_u8(os, direct_bits_ >= 0 ? 1 : 0);
  common::write_u8(os, direct_bits_ >= 0
                           ? static_cast<std::uint8_t>(direct_bits_)
                           : 0);
  common::write_u64(os, bin_limit_);
  common::write_u8(os, overflow_used_ ? 1 : 0);
  common::write_u64(os, overflow_[0]);
  common::write_u64(os, overflow_[1]);
  // Resident keys in ascending order (sorted_keys() appends the overflow
  // bin, which is stored separately above — skip it here).
  std::vector<std::uint64_t> keys = sorted_keys();
  if (!keys.empty() && keys.back() == kOverflowKey) keys.pop_back();
  common::write_u64(os, keys.size());
  for (std::uint64_t key : keys) {
    const auto cnt = counts_for(key);
    common::write_u64(os, key);
    common::write_u64(os, cnt[0]);
    common::write_u64(os, cnt[1]);
  }
}

FlatCountTable FlatCountTable::deserialize(std::istream& is) {
  FlatCountTable table;
  const bool direct = common::read_u8(is) != 0;
  const unsigned direct_bits = common::read_u8(is);
  table.bin_limit_ = common::read_u64(is);
  table.overflow_used_ = common::read_u8(is) != 0;
  table.overflow_[0] = common::read_u64(is);
  table.overflow_[1] = common::read_u64(is);
  const std::uint64_t nkeys = common::read_u64(is);
  if (direct) {
    common::require(direct_bits <= 30 &&
                        (std::size_t{1} << direct_bits) <= table.bin_limit_,
                    "FlatCountTable: malformed direct snapshot header");
    common::require(!table.overflow_used_,
                    "FlatCountTable: direct snapshot cannot pool");
    common::require(nkeys <= (std::uint64_t{1} << direct_bits),
                    "FlatCountTable: direct snapshot overfull");
    table.init_direct(direct_bits);
    for (std::uint64_t i = 0; i < nkeys; ++i) {
      const std::uint64_t key = common::read_u64(is);
      common::require(key < (std::uint64_t{1} << direct_bits),
                      "FlatCountTable: snapshot key outside direct space");
      const std::uint64_t c0 = common::read_u64(is);
      const std::uint64_t c1 = common::read_u64(is);
      table.direct_counts_[2 * static_cast<std::size_t>(key)] = c0;
      table.direct_counts_[2 * static_cast<std::size_t>(key) + 1] = c1;
    }
    return table;
  }
  // As with ContingencyTable, a saturated table can hold one bin past the
  // limit (bin_limit_ resident keys plus the pooled overflow bin).
  const std::uint64_t total_bins = nkeys + (table.overflow_used_ ? 1 : 0);
  common::require(total_bins == 0 || total_bins - 1 <= table.bin_limit_,
                  "FlatCountTable: snapshot exceeds its own bin limit");
  table.reserve(static_cast<std::size_t>(nkeys));
  std::uint64_t prev_key = 0;
  for (std::uint64_t i = 0; i < nkeys; ++i) {
    const std::uint64_t key = common::read_u64(is);
    common::require(key != kOverflowKey,
                    "FlatCountTable: overflow key stored as resident");
    common::require(i == 0 || key > prev_key,
                    "FlatCountTable: snapshot keys not strictly ascending");
    prev_key = key;
    const std::uint64_t c0 = common::read_u64(is);
    const std::uint64_t c1 = common::read_u64(is);
    // Direct slot insertion (bypassing add's pooling check, which must not
    // re-trigger while restoring an already-pooled table).
    if (2 * (table.used_slots_ + 1) > table.keys_.size()) table.grow();
    const std::size_t slot = table.find_slot(key);
    table.keys_[slot] = key;
    table.counts_[2 * slot] = c0;
    table.counts_[2 * slot + 1] = c1;
    ++table.used_slots_;
  }
  return table;
}

bool FlatCountTable::operator==(const FlatCountTable& other) const {
  if (direct_bits_ != other.direct_bits_ || bin_limit_ != other.bin_limit_ ||
      overflow_used_ != other.overflow_used_ || overflow_ != other.overflow_)
    return false;
  const std::vector<std::uint64_t> keys = sorted_keys();
  if (keys != other.sorted_keys()) return false;
  for (std::uint64_t key : keys)
    if (counts_for(key) != other.counts_for(key)) return false;
  return true;
}

void FlatCountTable::clear() {
  std::fill(direct_counts_.begin(), direct_counts_.end(), 0);
  std::fill(keys_.begin(), keys_.end(), kEmptySlot);
  std::fill(counts_.begin(), counts_.end(), 0);
  used_slots_ = 0;
  overflow_ = {0, 0};
  overflow_used_ = false;
}

GTestResult g_test_two_rows(const std::vector<std::uint64_t>& row_fixed,
                            const std::vector<std::uint64_t>& row_random,
                            double min_expected) {
  common::require(row_fixed.size() == row_random.size(),
                  "g_test_two_rows: row length mismatch");
  std::vector<std::array<std::uint64_t, 2>> cols;
  cols.reserve(row_fixed.size());
  for (std::size_t i = 0; i < row_fixed.size(); ++i) {
    if (row_fixed[i] == 0 && row_random[i] == 0) continue;
    cols.push_back({row_fixed[i], row_random[i]});
  }
  return g_test_columns(cols, min_expected);
}

}  // namespace sca::stats
