#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include <sched.h>
#include <sys/resource.h>

#include "src/common/rng.hpp"

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb(bool children) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  double kib = static_cast<double>(self.ru_maxrss);
  if (children) {
    rusage kids{};
    ::getrusage(RUSAGE_CHILDREN, &kids);
    kib += static_cast<double>(kids.ru_maxrss);
  }
  return kib / 1024.0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  return sca::common::mix64(sca::common::mix64(seed ^ (stream << 40)) + index);
}

std::uint64_t Tracer::open(const std::string& layer, const std::string& name,
                           std::uint64_t parent) {
  if (!enabled_) return 0;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.op = parent ? spans_[parent - 1].op : next_op_++;
  s.layer = layer;
  s.name = name;
  s.start = t;
  s.end = t;
  spans_.push_back(std::move(s));
  return spans_.size();
}

void Tracer::close(std::uint64_t id) {
  if (id == 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end = t;
}

void Tracer::record(const std::string& layer, const std::string& name,
                    std::uint64_t parent, double start, double end) {
  if (!enabled_ || parent == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.op = spans_[parent - 1].op;
  s.layer = layer;
  s.name = name;
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
}

std::map<std::string, double> Tracer::self_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent) child_cover[s.parent - 1] += s.end - s.start;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].layer] += spans_[i].end - spans_[i].start - child_cover[i];
  return out;
}

std::size_t Tracer::operations() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<std::uint64_t> ops;
  for (const Span& s : spans_) ops.insert(s.op);
  return ops.size();
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Tracer::write_jsonl(const std::string& path,
                         const std::string& meta_line) const {
  std::ofstream out(path);
  out << meta_line << "\n";
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"layer\":" << quoted(s.layer)
        << ",\"name\":" << quoted(s.name)
        << ",\"start\":" << json_number(s.start)
        << ",\"end\":" << json_number(s.end) << "}\n";
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit, std::size_t samples) {
  values_[name] = Entry{value, unit, samples};
}

void Metrics::print_human() const {
  for (const auto& [name, e] : values_)
    std::printf("  %-34s %14.6g %-8s (n=%zu)\n", name.c_str(), e.value,
                e.unit.c_str(), e.samples);
}

std::string Metrics::json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, e] : values_) {
    if (!first) out += ", ";
    first = false;
    out += quoted(name) + ": {\"value\": " + json_number(e.value) +
           ", \"unit\": " + quoted(e.unit) + "}";
  }
  return out + "}";
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

// Usable cores: the scheduling affinity mask capped by the physical core
// count (unique (physical id, core id) pairs of /proc/cpuinfo) — the rule
// bench_perf uses for its scaling trajectory.
unsigned usable_cores() {
  unsigned usable = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (::sched_getaffinity(0, sizeof(mask), &mask) == 0 && CPU_COUNT(&mask) > 0)
    usable = static_cast<unsigned>(CPU_COUNT(&mask));
  std::ifstream in("/proc/cpuinfo");
  std::set<std::pair<int, int>> cores;
  int physical_id = -1;
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find('\t'));
    const int value = std::atoi(line.c_str() + colon + 1);
    if (key == "physical id") physical_id = value;
    if (key == "core id") cores.emplace(physical_id, value);
  }
  if (!cores.empty())
    usable = std::min(usable, static_cast<unsigned>(cores.size()));
  return std::max(1u, usable);
}

}  // namespace

std::string metadata_json(const std::string& workload, std::uint64_t seed,
                          double seconds, bool trace, unsigned threads,
                          unsigned workers, const std::string& commit) {
  std::ostringstream o;
  o << "{\"compiler\":" << quoted(PERFBENCH_COMPILER)
    << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
    << ",\"march\":" << quoted(PERFBENCH_MARCH)
    << ",\"cpu\":" << quoted(cpu_model())
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"usable_cores\":" << usable_cores()
    << ",\"commit\":" << quoted(commit) << ",\"workload\":" << quoted(workload)
    << ",\"seed\":" << seed << ",\"seconds\":" << json_number(seconds)
    << ",\"trace\":" << (trace ? "true" : "false")
    << ",\"threads\":" << threads << ",\"workers\":" << workers << "}";
  return o.str();
}

}  // namespace perfbench
