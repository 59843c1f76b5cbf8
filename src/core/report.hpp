// Text rendering of campaign results, in the spirit of PROLEAD's report:
// a verdict line, campaign parameters, and the most significant probe sets
// with their -log10(p) values and gate names.
#pragma once

#include <string>

#include "src/common/json.hpp"
#include "src/core/campaign.hpp"
#include "src/lint/linter.hpp"

namespace sca::eval {

/// Full report with the `top_n` most significant probe sets.
std::string to_string(const CampaignResult& result, std::size_t top_n = 10);

/// One-line verdict: "PASS (max -log10(p) = 1.32 over 107 probe sets)".
std::string verdict_line(const CampaignResult& result);

/// One-line progress report of a completed evaluation stage:
/// "stage 3/10: 60000/200000 sims, max -log10(p) = 5.21 (sbox...), 1 leak".
std::string stage_line(const StageReport& report);

/// JSON object of a stage report, for machine-readable progress streams
/// (one dumped object per line). Tagged with "backend":"campaign" so
/// interleaved multi-backend streams stay self-identifying line by line;
/// callers add their own tags (e.g. "job") before dumping.
common::Json to_json(const StageReport& report);

/// JSON object of a campaign result with its `top_n` worst probe sets
/// inlined.
common::Json to_json(const CampaignResult& result, std::size_t top_n = 10);

/// JSON object of a lint report with every finding inlined (rule, probe,
/// offending signals, shared fresh bits, completed sharings, certificate).
common::Json to_json(const lint::LintReport& report);

/// Canonical single-line JSON *verdict* of a campaign — the byte-comparable
/// subset of a CampaignResult. Contains only fields the engine's
/// determinism contract pins for a given job configuration: the verdict
/// bits, statistics, and the full probe-set list; never timings, thread /
/// lane counts, staging, batching, or resume bookkeeping. Doubles are
/// printed with %.17g (round-trip exact) and the probe-set list is
/// re-sorted with a total order (severity descending, then name ascending)
/// so unstable-sort tie order cannot differ between runs. Two runs of the
/// same job — any thread count, lane width, stage grid, or number of
/// crash/resume handoffs — produce byte-identical verdict_json output;
/// the service's crash-recovery tests assert exactly this.
std::string verdict_json(const CampaignResult& result);

}  // namespace sca::eval
