// Shared helpers for the experiment benches.
//
// Every bench prints the paper artifact it regenerates, the claim, and a
// PASS/FAIL verdict table. Simulation budgets default to laptop-scale and
// can be raised to the paper's scale with SCA_SIMS (e.g. SCA_SIMS=4000000
// matches the paper's 4 million simulations).
//
// Machine-readable trajectory: when SCA_BENCH_JSON names a file, every
// bench appends one JSON object per run — {"bench": ..., "pass": ...,
// "seconds": ..., plus bench-specific fields} — so verdicts and runtimes
// can be tracked across commits with a one-line scrape.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/json.hpp"
#include "src/common/strings.hpp"
#include "src/core/campaign.hpp"
#include "src/core/report.hpp"
#include "src/gadgets/bus.hpp"
#include "src/gadgets/kronecker.hpp"
#include "src/gadgets/masked_sbox.hpp"
#include "src/lint/linter.hpp"
#include "src/netlist/ir.hpp"

namespace sca::benchutil {

/// Simulation budget: SCA_SIMS env var, else the given default.
inline std::size_t simulations(std::size_t fallback) {
  if (const char* env = std::getenv("SCA_SIMS")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) return v;
  }
  return fallback;
}

/// Trajectory file path (SCA_BENCH_JSON env), or nullptr when not recording.
inline const char* bench_json_path() {
  const char* path = std::getenv("SCA_BENCH_JSON");
  return (path && *path) ? path : nullptr;
}

/// Appends `line` dumped as one JSON line to `path` (nullptr: no-op).
/// Best-effort: an unwritable path warns on stderr but never fails the bench.
inline void append_json_line(const common::Json& line, const char* path) {
  if (!path) return;
  if (std::FILE* f = std::fopen(path, "a")) {
    const std::string text = line.dump() + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "warning: cannot append JSON line to %s\n", path);
  }
}

/// Stage count requested by the SCA_STAGES environment variable (0 when
/// unset): the benches' way to stage a campaign without flags.
inline unsigned env_stages() {
  const char* env = std::getenv("SCA_STAGES");
  return env ? static_cast<unsigned>(std::strtoul(env, nullptr, 10)) : 0;
}

/// Stage sink of the benches: prints stage_line() and, when SCA_STAGE_JSON
/// names a file, appends the stage's JSON object to it as one line.
inline void print_stage(const eval::StageReport& report) {
  std::printf("%s\n", eval::stage_line(report).c_str());
  std::fflush(stdout);
  append_json_line(eval::to_json(report), std::getenv("SCA_STAGE_JSON"));
}

/// Staged-evaluation knobs shared by the experiment benches. Defaults are
/// inert (single stage, no checkpoint, no early stopping); SCA_STAGES
/// applies when `stages` is left at 0.
struct Staging {
  unsigned stages = 0;             ///< 0 = SCA_STAGES env, else unstaged.
  std::string checkpoint;          ///< Snapshot path; "" = no checkpointing.
  bool resume = false;             ///< Resume from `checkpoint` if present.
  unsigned stop_after_stage = 0;   ///< Interrupt after stage k (CI/testing).
  unsigned early_stop_stages = 0;  ///< Consecutive confirmations; 0 = off.
  double early_stop_margin = 3.0;  ///< Extra -log10(p) above the threshold.
  bool lint = false;               ///< Also run the static linter (--lint).
  bool lint_order2 = false;        ///< Pair-probe lint checks (--lint-order2).

  /// Same staging with a per-campaign suffix on the checkpoint path, so a
  /// bench running several campaigns keeps their snapshots apart.
  Staging with_suffix(const std::string& tag) const {
    Staging s = *this;
    if (!s.checkpoint.empty()) s.checkpoint += "." + tag;
    return s;
  }
};

/// Parses the staging flags every experiment bench accepts:
///   --stages=N --checkpoint=PATH --resume[=PATH] --stop-after-stage=K
///   --early-stop[=K] --early-stop-margin=X --lint
/// Unknown arguments print usage and exit(2).
inline Staging parse_staging(int argc, char** argv) {
  Staging s;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    const auto take = [&](const std::string& prefix) {
      if (arg.rfind(prefix, 0) != 0) return false;
      v = arg.substr(prefix.size());
      return true;
    };
    if (take("--stages="))
      s.stages = static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
    else if (take("--checkpoint="))
      s.checkpoint = v;
    else if (arg == "--resume")
      s.resume = true;
    else if (take("--resume=")) {
      s.resume = true;
      s.checkpoint = v;
    } else if (take("--stop-after-stage="))
      s.stop_after_stage =
          static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
    else if (arg == "--early-stop")
      s.early_stop_stages = 2;
    else if (take("--early-stop="))
      s.early_stop_stages =
          static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
    else if (take("--early-stop-margin="))
      s.early_stop_margin = std::strtod(v.c_str(), nullptr);
    else if (arg == "--lint")
      s.lint = true;
    else if (arg == "--lint-order2")
      s.lint = s.lint_order2 = true;
    else {
      std::fprintf(
          stderr,
          "unknown argument: %s\n"
          "usage: %s [--stages=N] [--checkpoint=PATH] [--resume[=PATH]]\n"
          "          [--stop-after-stage=K] [--early-stop[=K]]\n"
          "          [--early-stop-margin=X] [--lint] [--lint-order2]\n",
          arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
  if (s.resume && s.checkpoint.empty()) {
    std::fprintf(stderr,
                 "--resume needs a snapshot path: use --checkpoint=PATH or "
                 "--resume=PATH\n");
    std::exit(2);
  }
  return s;
}

/// Copies the staging knobs into campaign options (SCA_STAGES when no
/// --stages flag was given) and, whenever staging is actually active, wires
/// print_stage so progress lines appear between stages.
inline void apply_staging(const Staging& s, eval::CampaignOptions& options) {
  options.stages = s.stages ? s.stages : env_stages();
  options.checkpoint_path = s.checkpoint;
  options.resume = s.resume;
  options.stop_after_stage = s.stop_after_stage;
  options.early_stop_stages = s.early_stop_stages;
  options.early_stop_margin = s.early_stop_margin;
  if (options.stages > 1 || s.resume || !s.checkpoint.empty() ||
      s.early_stop_stages > 0 || s.stop_after_stage > 0)
    options.on_stage = print_stage;
}

/// Builds a standalone Kronecker delta netlist over `share_count` shares.
inline netlist::Netlist kronecker_netlist(const gadgets::RandomnessPlan& plan,
                                          std::size_t share_count = 2) {
  netlist::Netlist nl;
  std::vector<gadgets::Bus> shares;
  for (std::size_t i = 0; i < share_count; ++i)
    shares.push_back(gadgets::make_input_bus(
        nl, 8, netlist::InputRole::kShare, common::numbered("b", i, "_"), 0,
        static_cast<std::uint32_t>(i)));
  gadgets::build_kronecker(nl, shares, plan);
  return nl;
}

/// Fixed-vs-random campaign on a standalone Kronecker (fixed secret 0x00).
inline eval::CampaignResult run_kronecker(const gadgets::RandomnessPlan& plan,
                                          eval::ProbeModel model,
                                          std::size_t sims, unsigned order = 1,
                                          std::size_t share_count = 2,
                                          const Staging& staging = {}) {
  const netlist::Netlist nl = kronecker_netlist(plan, share_count);
  eval::CampaignOptions options;
  options.model = model;
  options.order = order;
  options.simulations = sims;
  options.fixed_values[0] = 0x00;
  apply_staging(staging, options);
  return eval::run_fixed_vs_random(nl, options);
}

/// Fixed-vs-random campaign on the full masked Sbox.
inline eval::CampaignResult run_sbox(const gadgets::MaskedSboxOptions& sbox_opts,
                                     std::uint8_t fixed_value,
                                     eval::ProbeModel model, std::size_t sims,
                                     const Staging& staging = {}) {
  netlist::Netlist nl;
  const gadgets::MaskedSbox sbox = gadgets::build_masked_sbox(nl, sbox_opts);
  eval::CampaignOptions options;
  options.model = model;
  options.simulations = sims;
  options.fixed_values[0] = fixed_value;
  options.nonzero_random_buses = {sbox.rand_b2m};
  apply_staging(staging, options);
  return eval::run_fixed_vs_random(nl, options);
}

/// Prints "expected X, got Y" rows and tracks overall success. Construct
/// with the bench's name to have exit_code() append the verdict and wall
/// time to the SCA_BENCH_JSON trajectory.
class Scorecard {
 public:
  Scorecard() : start_(std::chrono::steady_clock::now()) {}
  explicit Scorecard(std::string bench_name)
      : bench_(std::move(bench_name)),
        start_(std::chrono::steady_clock::now()) {}

  void expect(const std::string& what, bool expected_pass,
              const eval::CampaignResult& result) {
    const bool match = result.pass == expected_pass;
    ok_ &= match;
    std::printf("  %-58s paper: %-4s  measured: %-4s %s\n", what.c_str(),
                expected_pass ? "PASS" : "FAIL", result.pass ? "PASS" : "FAIL",
                match ? "[reproduced]" : "[MISMATCH]");
  }

  void expect_flag(const std::string& what, bool expected, bool measured) {
    const bool match = expected == measured;
    ok_ &= match;
    std::printf("  %-58s paper: %-4s  measured: %-4s %s\n", what.c_str(),
                expected ? "yes" : "no", measured ? "yes" : "no",
                match ? "[reproduced]" : "[MISMATCH]");
  }

  /// Attaches an extra field to this bench's trajectory record.
  void note(const std::string& key, common::Json value) {
    extra_.set(key, std::move(value));
  }

  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Final verdict; appends {bench, pass, seconds, notes...} to the
  /// SCA_BENCH_JSON trajectory when a bench name was given.
  int exit_code() {
    if (!bench_.empty()) {
      common::Json line = common::Json::object();
      line.set("bench", bench_);
      line.set("pass", ok_);
      line.set("seconds", seconds());
      for (const auto& [key, value] : extra_.fields()) line.set(key, value);
      append_json_line(line, bench_json_path());
    }
    return ok_ ? 0 : 1;
  }

  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
  std::string bench_;
  common::Json extra_ = common::Json::object();
  std::chrono::steady_clock::time_point start_;
};

/// Runs the static linter (opted in with --lint) on `nl` under the lint
/// model matching `model`, prints the report, scores the expected verdict,
/// and attaches probe/finding counts to the trajectory under `tag`. Circuits
/// the linter cannot handle (register feedback) print a skip and score
/// nothing.
/// Runs the linter (optionally scope-fenced; "" lints the whole design,
/// which the support-annotation sublattice makes sound for multiplicative
/// netlists too), checks the verdict, and records probe/finding counters
/// plus wall-clock throughput in the scorecard. Returns the report so
/// benches can assert on finding localization, or nullopt when staging
/// skipped the check or the netlist was rejected.
inline std::optional<lint::LintReport> lint_check(
    Scorecard& score, const Staging& staging, const netlist::Netlist& nl,
    eval::ProbeModel model, const std::string& scope, const std::string& what,
    bool expect_flagged, const std::string& tag = "lint", unsigned order = 1) {
  if (!staging.lint) return std::nullopt;
  if (order >= 2 && !staging.lint_order2) return std::nullopt;
  lint::LintOptions options;
  options.model = model == eval::ProbeModel::kGlitchTransition
                      ? lint::LintModel::kGlitchTransition
                      : lint::LintModel::kGlitch;
  options.scope_filter = scope;
  options.order = order;
  try {
    const auto start = std::chrono::steady_clock::now();
    const lint::LintReport report = lint::run_lint(nl, options);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::printf("%s\n", to_string(report).c_str());
    score.expect_flag(what, expect_flagged, !report.clean());
    score.note(tag + "_probes", report.probes_checked);
    if (order >= 2) score.note(tag + "_pairs", report.pairs_deduped);
    score.note(tag + "_findings", report.findings.size());
    score.note(tag + "_seconds", seconds);
    return report;
  } catch (const common::Error& e) {
    std::printf("lint: skipped (%s)\n\n", e.what());
    return std::nullopt;
  }
}

}  // namespace sca::benchutil
