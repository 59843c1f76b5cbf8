// perfbench — the repository's benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--expect-wrong] [--commit <id>] [--out-dir <dir>]
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) split the time between an untraced and a traced loop, run the
// per-layer pass, write the spans to <out-dir>/spans-<workload>-<seed>.jsonl
// and report the per-layer metrics. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a metadata line (machine,
// build, commit, seed, threads) precedes it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--expect-wrong] "
               "[--commit <id>] [--out-dir <dir>]\nworkloads:",
               why);
  for (const auto& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

/// Median set-up time: at least 5 set-ups and 0.3 s of them (at most 100).
/// The previous set-up is torn down outside the timed interval.
double measure_setup(Workload& w, bool smoke) {
  std::vector<double> t;
  double total = 0;
  while (t.empty() ||
         (!smoke && (t.size() < 5 || total < 0.3) && t.size() < 100)) {
    if (!t.empty()) w.teardown();
    const double t0 = now_s();
    w.setup();
    t.push_back(now_s() - t0);
    total += t.back();
  }
  return median(t);
}

/// The loop, with an escaping exception counted as one failed operation.
void guarded_loop(Workload& w, double seconds, Tracer& tracer,
                  LoopStats& stats) {
  try {
    w.loop(seconds, tracer, stats);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: operation failed: %s\n", e.what());
    stats.add_check(false);
  }
}

/// The tail the sample count resolves: the highest percentile with at
/// least ten samples beyond it, capped at p90 — p99 of the 1,200 evald_hit
/// hits moved by 30% between runs on a shared host, p90 by a few percent.
/// Below 20 samples no percentile above the median qualifies, so the tail
/// is the median. The summary line prints p99 and the maximum as well.
double tail(const std::vector<double>& v) {
  const double n = static_cast<double>(v.size());
  return quantile(v, std::clamp(1.0 - 10.0 / n, 0.5, 0.9));
}

const char* const kLayers[] = {"bench",   "gadgets",  "netlist",    "sim",
                               "common",  "probes",   "accplan",    "campaign",
                               "stats",   "checkpoint", "lint",     "verif",
                               "service"};

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      config.smoke = true;
    } else if (a == "--expect-wrong") {
      config.expect_wrong = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      config.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed") {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      config.seconds = std::atof(argv[++i]);
      have_seconds = config.seconds > 0;
    } else if (a == "--trace") {
      const std::string v = argv[++i];
      config.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (a == "--commit") {
      commit = argv[++i];
    } else if (a == "--out-dir") {
      config.out_dir = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");
  std::unique_ptr<Workload> w = make_workload(config);
  if (!w) return usage(("unknown workload " + config.workload).c_str());

  try {
    std::filesystem::create_directories(config.out_dir);
    const std::string meta =
        metadata_json(config.workload, config.seed, config.seconds,
                      config.trace, kThreads, kWorkers, commit);
    const double setup_s = measure_setup(*w, config.smoke);

    Tracer tracer(false);
    Metrics m;
    LoopStats stats;
    if (!config.trace) {
      guarded_loop(*w, config.seconds, tracer, stats);
      w->teardown();
      w->finish(stats);
      if (stats.verdict_s.empty()) throw std::runtime_error("no operation completed");
      m.set("work_per_s", median(stats.work_per_s), "1/s",
            stats.work_per_s.size());
      m.set("verdict_p50_s", median(stats.verdict_s), "s",
            stats.verdict_s.size());
      m.set("verdict_tail_s", tail(stats.verdict_s), "s",
            stats.verdict_s.size());
      m.set("setup_s", setup_s, "s");
      m.set("peak_rss_mb", peak_rss_mb(w->has_children()), "MB");
      m.set("ok_rate",
            1.0 - static_cast<double>(stats.failed) /
                      static_cast<double>(std::max<std::size_t>(1, stats.attempted)),
            "ratio", stats.attempted);
    } else {
      // Same loop, first untraced, then traced: the difference of their
      // median verdict latencies is the tracing overhead.
      LoopStats untraced;
      guarded_loop(*w, config.seconds / 2, tracer, untraced);
      tracer.set_enabled(true);
      guarded_loop(*w, config.seconds / 2, tracer, stats);
      w->teardown();
      w->finish(stats);
      stats.attempted += untraced.attempted;
      stats.failed += untraced.failed;
      const std::size_t loop_ops = tracer.operations();
      w->layers(tracer, m, stats);
      const double base = median(untraced.verdict_s);
      m.set("trace.overhead_frac",
            base > 0 ? median(stats.verdict_s) / base - 1.0 : 0.0, "ratio",
            stats.verdict_s.size());
      m.set("trace.ops", static_cast<double>(loop_ops), "count");
      m.set("trace.spans", static_cast<double>(tracer.size()), "count");
      const auto self = tracer.self_times();
      for (const char* layer : kLayers) {
        const auto it = self.find(layer);
        m.set(std::string("self.") + layer + "_s",
              it == self.end() ? 0.0 : it->second, "s");
      }
      tracer.write_jsonl(config.out_dir + "/spans-" + config.workload + "-" +
                             std::to_string(config.seed) + ".jsonl",
                         meta);
    }

    const bool correct = stats.failed == 0 && stats.attempted > 0;
    std::printf("perfbench %s seed=%llu: %zu operations, %zu failed (%s)\n",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed), stats.attempted,
                stats.failed, w->work_unit());
    if (!config.trace)
      std::printf("  %-34s %14.6g %-8s\n", "error_rate",
                  static_cast<double>(stats.failed) /
                      static_cast<double>(std::max<std::size_t>(1, stats.attempted)),
                  "ratio");
    if (!stats.verdict_s.empty())
      std::printf("  verdict latency (s): p50 %.6g  p90 %.6g  p99 %.6g  "
                  "max %.6g  (n=%zu)\n",
                  median(stats.verdict_s), quantile(stats.verdict_s, 0.9),
                  quantile(stats.verdict_s, 0.99),
                  quantile(stats.verdict_s, 1.0), stats.verdict_s.size());
    m.print_human();
    std::printf("{\"meta\": %s}\n", meta.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", stats.attempted, stats.failed,
                m.json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
