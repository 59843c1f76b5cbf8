// Measurement plumbing of the benchmark: a steady clock, order statistics,
// an in-memory span recorder, the metric sink, and machine metadata.
//
// Spans are recorded only by the benchmark's own code, around calls into the
// library's public functions (src/ itself is not instrumented). A span has a
// name, the layer it times (a src/ module name, or "bench" for the
// benchmark's own work), start and end in seconds since process start, its
// parent span and the operation it belongs to. A disabled recorder makes
// every call a no-op, so the same loop code serves the untraced and the
// traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds since the first call in this process (steady clock).
double now_s();

/// Quantile q in [0, 1] with linear interpolation between order statistics
/// (the inclusive definition); `values` need not be sorted. Empty -> 0.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Peak resident set size of this process in MiB (and, with
/// `children`, plus the largest waited-for descendant's peak).
double peak_rss_mb(bool children);

/// Deterministic per-operation seed: a SplitMix64 mix of the workload seed
/// and the operation's coordinates.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< operation id shared by the op's spans
  std::string layer;
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span now and returns its id (0 when disabled). A `parent` of 0
  /// makes the span the root of a new operation.
  std::uint64_t open(const std::string& layer, const std::string& name,
                     std::uint64_t parent);
  void close(std::uint64_t id);
  /// Records a finished span whose interval is known (counter-derived
  /// phases laid end to end inside their parent).
  void record(const std::string& layer, const std::string& name,
              std::uint64_t parent, double start, double end);

  /// Self time per layer: each span's duration minus the part its direct
  /// children cover, summed by layer.
  std::map<std::string, double> self_times() const;
  /// Number of distinct operations with at least one span.
  std::size_t operations() const;
  std::size_t size() const;
  /// One JSON object per line: id, parent, op, layer, name, start, end.
  void write_jsonl(const std::string& path, const std::string& meta_line) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;  // guards the fields below
  std::vector<Span> spans_;
  std::uint64_t next_op_ = 1;
};

/// RAII span. Destroys (closes) at scope end; children name it as parent.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& layer, const std::string& name,
        std::uint64_t parent = 0)
      : tracer_(tracer), id_(tracer.open(layer, name, parent)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

/// Named metrics of one run, printed one per line for people and as the
/// final JSON line for tools.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1);
  void print_human() const;
  /// {"name": {"value": v, "unit": u}, ...}
  std::string json() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;
  };
  std::map<std::string, Entry> values_;
};

/// Machine, build and run metadata as one JSON object.
std::string metadata_json(const std::string& workload, std::uint64_t seed,
                          double seconds, bool trace, unsigned threads,
                          unsigned workers, const std::string& commit);

/// Round-trip (%.17g) decimal rendering of a double ("null" for NaN/inf).
std::string json_number(double v);

}  // namespace perfbench
