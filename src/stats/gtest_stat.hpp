// G-test (log-likelihood ratio) on 2 x K contingency tables.
//
// This is the statistic PROLEAD applies to the fixed-vs-random experiment:
// the two rows are the "fixed" and "random" simulation groups, the K columns
// are the distinct values observed by a (glitch/transition-extended) probe
// set, and the null hypothesis is that the observation distribution does not
// depend on the group.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "src/common/check.hpp"

namespace sca::stats {

class FlatCountTable;

/// Result of a G-test evaluation.
struct GTestResult {
  double g = 0.0;               ///< G statistic (2 * sum O ln(O/E)).
  std::size_t df = 0;           ///< Degrees of freedom.
  double minus_log10_p = 0.0;   ///< -log10 of the chi-squared p-value.
  std::size_t bins = 0;         ///< Number of distinct observed values.
  std::uint64_t n_fixed = 0;    ///< Total count in the fixed group.
  std::uint64_t n_random = 0;   ///< Total count in the random group.
};

/// Two-group contingency table keyed by a 64-bit observation key.
///
/// Keys are whatever encoding the caller chooses for an observation tuple
/// (for observations wider than 64 bits, the caller hashes them first; a
/// hash collision can only ever merge bins, which loses power but never
/// produces spurious leakage).
class ContingencyTable {
 public:
  /// Key that pooled overflow observations are counted under once the bin
  /// limit is reached (see set_bin_limit).
  static constexpr std::uint64_t kOverflowKey = ~std::uint64_t{0};

  /// Bounds the number of distinct keys tracked; once reached, observations
  /// with new keys are pooled under kOverflowKey. Bounds memory on huge
  /// observation spaces at a small loss of statistical power.
  void set_bin_limit(std::size_t limit) { bin_limit_ = limit; }

  /// Adds `count` observations of `key` to group 0 (fixed) or 1 (random).
  void add(std::uint64_t key, int group, std::uint64_t count = 1);

  /// Merges another table into this one — the reduction step joining the
  /// per-chunk tables of a parallel campaign. Respects this table's bin
  /// limit; when pooling could trigger, incoming keys are visited in sorted
  /// order so the merged contents depend only on the two tables' contents
  /// (bit-identical joins for any thread count / merge partitioning, as
  /// long as merges happen in a deterministic order).
  void merge(const ContingencyTable& other);

  /// Same reduction from a flat per-chunk accumulator (the bit-sliced hot
  /// path's table type), with the identical determinism contract: sorted
  /// incoming keys whenever pooling could trigger.
  void merge(const FlatCountTable& other);

  /// Runs the G-test over the accumulated counts. Bins where both groups
  /// have zero count are impossible by construction; bins with a low total
  /// expected count (< `min_expected`) are pooled into one residual bin to
  /// keep the chi-squared approximation honest, mirroring PROLEAD.
  GTestResult g_test(double min_expected = 5.0) const;

  std::size_t bin_count() const { return counts_.size(); }
  std::uint64_t group_total(int group) const;

  const std::unordered_map<std::uint64_t, std::array<std::uint64_t, 2>>&
  counts() const {
    return counts_;
  }

  /// Binary snapshot of the accumulated counts (ascending key order, so the
  /// byte stream is canonical). deserialize() restores a table whose future
  /// add/merge/g_test behavior is identical to the original's.
  void serialize(std::ostream& os) const;
  static ContingencyTable deserialize(std::istream& is);

  /// Logical equality: same bin limit, same keys, same per-group counts.
  bool operator==(const ContingencyTable& other) const;

 private:
  std::unordered_map<std::uint64_t, std::array<std::uint64_t, 2>> counts_;
  std::size_t bin_limit_ = ~std::size_t{0};
};

/// Contiguous two-group count table — the per-chunk accumulator of the
/// bit-sliced campaign hot path, replacing the node-allocating
/// unordered_map. Two storage modes:
///
///  * **direct**: for key spaces [0, 2^bits) small enough to materialize,
///    counts live in one flat array indexed by `2 * key + group` — one
///    increment per observation, no hashing, no probing.
///  * **hashed**: open addressing with linear probing over SoA key/count
///    arrays (power-of-two capacity, multiplicative hashing, <= 50% load).
///
/// Semantics mirror ContingencyTable exactly, including bin-limit overflow
/// pooling under kOverflowKey keyed on *insertion order* — so a flat table
/// and a ContingencyTable fed the same observation sequence hold identical
/// bins with identical counts, and ContingencyTable::merge(FlatCountTable)
/// is a drop-in for the chunk-ordered deterministic reduction.
class FlatCountTable {
 public:
  static constexpr std::uint64_t kOverflowKey = ContingencyTable::kOverflowKey;
  /// Key space sizes up to 2^kMaxDirectBits use the direct-indexed mode.
  /// 2^16 entries is 1 MiB of counts per table — far cheaper than hashing
  /// every observation, and campaign batching already budgets the
  /// materialized space per set.
  static constexpr unsigned kMaxDirectBits = 16;

  FlatCountTable() = default;

  /// Switches to direct-indexed mode over keys [0, 2^key_bits). Must be
  /// called on an empty table; adding a key >= 2^key_bits afterwards is a
  /// contract violation. Direct mode never pools (the whole key space is
  /// materialized), so the key space must fit the bin limit.
  void init_direct(unsigned key_bits);

  /// Bounds distinct tracked keys; past it, new keys pool into kOverflowKey
  /// (same rule as ContingencyTable::set_bin_limit).
  void set_bin_limit(std::size_t limit);

  /// Pre-sizes the hashed mode for ~`expected_keys` distinct keys.
  void reserve(std::size_t expected_keys);

  /// Adds `count` observations of `key` to group 0 (fixed) or 1 (random).
  void add(std::uint64_t key, int group, std::uint64_t count = 1);

  /// Batched add of one 64-lane transposed sample: keys[L] is lane L's
  /// observation key, all 64 go to `group` in lane order (which keeps
  /// overflow pooling bit-identical to 64 scalar add() calls).
  void add_keys64(const std::uint64_t keys[64], int group);

  /// Batched add of `samples` transposed 64-lane samples packed into one
  /// bit matrix: lane L's s-th key sits at bits [s*key_bits, (s+1)*key_bits)
  /// of rows[L]. Insertion order is sample-major then lane order — exactly
  /// `samples` add_keys64 calls — so pooling stays bit-identical to the
  /// scalar reference. Requires key_bits * samples <= 64.
  void add_packed(const std::uint64_t rows[64], unsigned key_bits,
                  unsigned samples, int group);

  /// Chunk-into-master reduction between flat tables (same determinism
  /// contract as ContingencyTable::merge: incoming keys visit in sorted
  /// order whenever this table's bin limit could pool). Two direct tables
  /// over the same key space reduce with one flat array add.
  void merge(const FlatCountTable& other);

  /// Direct-to-direct marginalization: folds `host`'s counts onto this
  /// table's smaller key space, where this table's key is the parallel bit
  /// extract of the host key under `key_mask` (popcount(key_mask) must
  /// equal this table's direct key bits). Both tables materialize their
  /// full key space and never pool, so the result is integer-identical to
  /// having accumulated this table's observations directly — the
  /// correctness basis of the campaign planner's subset hosting.
  void add_marginalized(const FlatCountTable& host, std::uint64_t key_mask);

  /// G-test over the accumulated counts, columns in ascending key order
  /// (overflow bin last). Same pooling of low-expectation bins as
  /// ContingencyTable::g_test.
  GTestResult g_test(double min_expected = 5.0) const;

  /// Distinct keys currently tracked (the overflow bin counts as one).
  std::size_t bin_count() const;

  /// Counts of `key`, or {0, 0} if absent.
  std::array<std::uint64_t, 2> counts_for(std::uint64_t key) const;

  /// All keys with at least one nonzero count, ascending (includes
  /// kOverflowKey last when pooling happened). Basis of deterministic
  /// merges.
  std::vector<std::uint64_t> sorted_keys() const;

  std::uint64_t group_total(int group) const;

  /// Drops all counts but keeps the storage mode and capacity — per-chunk
  /// accumulators are recycled across chunks.
  void clear();

  /// Binary snapshot: storage mode, bin limit, overflow bin, then every
  /// resident (key, counts) triple in ascending key order. The canonical
  /// order makes the byte stream a pure function of the logical contents.
  void serialize(std::ostream& os) const;

  /// Restores a table from serialize()'s stream. The resident key set, the
  /// counts, the storage mode, and the bin limit all round-trip exactly, so
  /// every future add/merge/g_test on the restored table is bit-identical
  /// to the same operations on the original — the checkpoint/resume
  /// contract of the campaign engine. Throws common::Error on truncated or
  /// malformed input.
  static FlatCountTable deserialize(std::istream& is);

  /// Logical equality: same mode, bin limit, resident keys, counts, and
  /// overflow bin. Slot layout (hash capacity) is excluded — it never
  /// affects observable behavior.
  bool operator==(const FlatCountTable& other) const;

  bool direct_mode() const { return direct_bits_ >= 0; }

  /// Raw direct-mode storage, entry 2*key + group — the campaign's
  /// innermost histogram loop increments it without a per-bin call. Only
  /// valid in direct mode.
  std::uint64_t* direct_data() {
    SCA_ASSERT(direct_bits_ >= 0,
               "FlatCountTable: direct_data requires direct mode");
    return direct_counts_.data();
  }

 private:
  friend class ContingencyTable;

  // kOverflowKey doubles as the empty-slot sentinel: add() routes that key
  // to the dedicated overflow_ bin before hashing, so it never enters the
  // slot arrays and every stored key is distinguishable from "empty".
  static constexpr std::uint64_t kEmptySlot = kOverflowKey;

  std::size_t find_slot(std::uint64_t key) const;
  void grow();
  void add_hashed(std::uint64_t key, int group, std::uint64_t count);

  // Direct mode: counts_[2 * key + group]; direct_bits_ >= 0 switches it on.
  int direct_bits_ = -1;
  std::vector<std::uint64_t> direct_counts_;

  // Hashed mode (SoA): keys_[slot] is kEmptySlot or the stored key;
  // counts_[2 * slot + group] are the per-group counts of that slot.
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> counts_;
  std::size_t capacity_mask_ = 0;
  unsigned hash_shift_ = 0;
  std::size_t used_slots_ = 0;

  std::size_t bin_limit_ = ~std::size_t{0};
  std::array<std::uint64_t, 2> overflow_{0, 0};
  bool overflow_used_ = false;
};

/// G-test over explicit {fixed, random} columns in the given order, each
/// with a nonzero total. FlatCountTable::g_test is exactly this over its
/// occupied keys in ascending order, so a caller that enumerates the same
/// keys in the same order gets a bit-identical result without a table.
GTestResult g_test_columns(const std::vector<std::array<std::uint64_t, 2>>& cols,
                           double min_expected = 5.0);

/// Convenience: G-test on an explicit pair of count vectors (same length,
/// column i of both rows). Used by the exact verifier and unit tests.
GTestResult g_test_two_rows(const std::vector<std::uint64_t>& row_fixed,
                            const std::vector<std::uint64_t>& row_random,
                            double min_expected = 5.0);

}  // namespace sca::stats
