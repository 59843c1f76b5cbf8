// Content-addressed verdict cache of the evaluation service.
//
// One entry per JobSpec::cache_key(): a single-line JSON file holding the
// finished verdict plus the key and engine version it was computed under.
// Entries live in a directory (one file per key, atomic tmp+rename writes),
// so the cache survives daemon restarts for free and several daemons can
// share one directory — the store is idempotent: two daemons racing to
// store the same key write byte-identical content, and rename() makes
// whichever lands last a no-op.
//
// Keys already cover the engine version, but lookup() re-validates the
// stored version and key fields anyway: a corrupted, truncated, or
// foreign file is treated as a miss and never served.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "src/common/json.hpp"

namespace sca::service {

class VerdictCache {
 public:
  /// Opens (creating if needed) the cache directory. An empty path
  /// disables the cache: lookups miss, stores are dropped.
  explicit VerdictCache(std::string dir);

  bool enabled() const { return !dir_.empty(); }

  /// Returns the cached verdict for `key`, or nullopt on miss /
  /// corruption / engine-version mismatch.
  std::optional<common::Json> lookup(const std::string& key) const;

  /// Stores `verdict` under `key` (atomic write). Failures to write are
  /// reported by return value, never thrown — a full disk degrades the
  /// service to cache-miss behavior instead of killing jobs.
  bool store(const std::string& key, const common::Json& verdict) const;

  /// Number of entries currently on disk (directory scan; diagnostics).
  std::size_t size() const;

  const std::string& dir() const { return dir_; }

 private:
  std::string path_for(const std::string& key) const;
  std::string dir_;
};

}  // namespace sca::service
