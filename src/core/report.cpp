#include "src/core/report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <vector>

namespace sca::eval {

using common::Json;

namespace {

const char* statistic_name(Statistic s) {
  return s == Statistic::kWelchTTest ? "ttest" : "gtest";
}

Json string_array(const std::vector<std::string>& items) {
  Json out = Json::array();
  for (const std::string& item : items) out.push_back(item);
  return out;
}

// The per-set fields shared by the result's "top" list and the verdict's
// "sets" list.
Json probe_set_json(const ProbeSetResult& r) {
  Json set = Json::object();
  set.set("name", r.name);
  set.set("minus_log10_p", r.minus_log10_p);
  set.set("bits", r.observation_bits);
  set.set("compacted", r.compacted);
  set.set("leaking", r.leaking);
  set.set("aliases", r.aliases.size());
  return set;
}

}  // namespace

std::string verdict_line(const CampaignResult& result) {
  std::ostringstream os;
  os << (result.pass ? "PASS" : "FAIL") << " (max "
     << (result.statistic == Statistic::kWelchTTest ? "|t|" : "-log10(p)")
     << " = " << std::fixed << std::setprecision(2)
     << result.max_minus_log10_p << " over " << result.total_sets
     << " probe sets, " << result.leaking_sets << " leaking)";
  return os.str();
}

std::string to_string(const CampaignResult& result, std::size_t top_n) {
  std::ostringstream os;
  os << "fixed-vs-random campaign: " << to_string(result.model) << ", order "
     << result.order << ", " << result.simulations_per_group
     << " simulations/group, " << result.threads_used
     << (result.threads_used == 1 ? " thread" : " threads");
  if (result.table_batches > 1)
    os << ", " << result.table_batches << " table batches";
  os << "\n";
  os << "verdict: " << verdict_line(result) << "\n";
  if (result.dropped_sets)
    os << "WARNING: " << result.dropped_sets
       << " probe sets dropped by max_probe_sets cap\n";
  os << std::fixed << std::setprecision(2);
  os << "  -log10(p)  bits  probe set\n";
  for (const ProbeSetResult* r : result.top(top_n)) {
    os << "  " << std::setw(9) << r->minus_log10_p << "  " << std::setw(4)
       << r->observation_bits << "  " << r->name
       << (r->compacted ? " [compact]" : "") << (r->leaking ? "  <-- LEAK" : "")
       << "\n";
  }
  return os.str();
}

std::string stage_line(const StageReport& report) {
  std::ostringstream os;
  os << "stage " << report.stage << "/" << report.stages_total;
  if (report.batches_total > 1)
    os << " (batch " << report.batch << "/" << report.batches_total << ")";
  os << ": " << report.simulations_done << "/" << report.simulations_total
     << " sims, max = " << std::fixed << std::setprecision(2)
     << report.max_minus_log10_p;
  if (!report.worst_set.empty()) os << " (" << report.worst_set << ")";
  os << ", " << report.leaking_sets
     << (report.leaking_sets == 1 ? " leak" : " leaks");
  if (report.sims_per_second > 0.0)
    os << ", " << std::setprecision(0) << report.sims_per_second << " sims/s";
  if (report.early_stopped) os << "  [early stop]";
  return os.str();
}

Json to_json(const StageReport& report) {
  Json j = Json::object();
  j.set("backend", "campaign");
  j.set("type", "stage");
  j.set("stage", report.stage);
  j.set("stages_total", report.stages_total);
  j.set("batch", report.batch);
  j.set("batches_total", report.batches_total);
  j.set("simulations_done", report.simulations_done);
  j.set("simulations_total", report.simulations_total);
  j.set("max_minus_log10_p", report.max_minus_log10_p);
  j.set("worst_set", report.worst_set);
  j.set("leaking_sets", report.leaking_sets);
  j.set("pass_so_far", report.pass_so_far);
  j.set("stage_seconds", report.stage_seconds);
  j.set("sims_per_second", report.sims_per_second);
  j.set("simulate_seconds", report.simulate_seconds);
  j.set("accumulate_seconds", report.accumulate_seconds);
  j.set("merge_seconds", report.merge_seconds);
  j.set("extract_seconds", report.extract_seconds);
  j.set("transpose_seconds", report.transpose_seconds);
  j.set("histogram_seconds", report.histogram_seconds);
  j.set("aliased_probe_sets", report.aliased_probe_sets);
  j.set("early_stopped", report.early_stopped);
  j.set("checkpoint", report.checkpoint_path);
  return j;
}

Json to_json(const CampaignResult& result, std::size_t top_n) {
  Json j = Json::object();
  j.set("backend", "campaign");
  j.set("type", "result");
  j.set("pass", result.pass);
  j.set("statistic", statistic_name(result.statistic));
  j.set("max_minus_log10_p", result.max_minus_log10_p);
  j.set("leaking_sets", result.leaking_sets);
  j.set("total_sets", result.total_sets);
  j.set("unevaluated_sets", result.unevaluated_sets);
  j.set("simulations_per_group", result.simulations_per_group);
  j.set("simulations_done", result.simulations_done);
  j.set("stages_total", result.stages_total);
  j.set("stages_completed", result.stages_completed);
  j.set("early_stopped", result.early_stopped);
  j.set("interrupted", result.interrupted);
  j.set("resumed", result.resumed);
  j.set("threads", result.threads_used);
  j.set("table_batches", result.table_batches);
  j.set("simulate_seconds", result.simulate_seconds);
  j.set("accumulate_seconds", result.accumulate_seconds);
  j.set("merge_seconds", result.merge_seconds);
  j.set("extract_seconds", result.extract_seconds);
  j.set("transpose_seconds", result.transpose_seconds);
  j.set("histogram_seconds", result.histogram_seconds);
  j.set("finalize_seconds", result.finalize_seconds);
  j.set("aliased_probe_sets", result.aliased_probe_sets);
  j.set("hosted_sets", result.hosted_sets);
  j.set("set_shards", result.set_shards);
  Json top = Json::array();
  for (const ProbeSetResult* r : result.top(top_n)) {
    Json set = probe_set_json(*r);
    if (!r->aliases.empty()) {
      // Names capped to keep the report bounded; the count is exact.
      const std::size_t shown = std::min<std::size_t>(r->aliases.size(), 8);
      set.set("alias_names",
              string_array({r->aliases.begin(), r->aliases.begin() + shown}));
    }
    top.push_back(std::move(set));
  }
  j.set("top", std::move(top));
  return j;
}

std::string verdict_json(const CampaignResult& result) {
  // Re-sort under a total order: campaign.cpp sorts by severity with an
  // unstable std::sort, so equal-severity neighbours may swap between runs.
  std::vector<const ProbeSetResult*> ordered;
  ordered.reserve(result.results.size());
  for (const ProbeSetResult& r : result.results) ordered.push_back(&r);
  std::sort(ordered.begin(), ordered.end(),
            [](const ProbeSetResult* a, const ProbeSetResult* b) {
              if (a->minus_log10_p != b->minus_log10_p)
                return a->minus_log10_p > b->minus_log10_p;
              return a->name < b->name;
            });
  Json j = Json::object();
  j.set("backend", "campaign");
  j.set("type", "verdict");
  j.set("pass", result.pass);
  j.set("statistic", statistic_name(result.statistic));
  j.set("model", result.model == ProbeModel::kGlitchTransition ? "transition"
                                                               : "glitch");
  j.set("order", result.order);
  j.set("max_minus_log10_p", result.max_minus_log10_p);
  j.set("leaking_sets", result.leaking_sets);
  j.set("total_sets", result.total_sets);
  j.set("dropped_sets", result.dropped_sets);
  j.set("unevaluated_sets", result.unevaluated_sets);
  j.set("simulations_per_group", result.simulations_per_group);
  j.set("early_stopped", result.early_stopped);
  Json sets = Json::array();
  for (const ProbeSetResult* r : ordered) sets.push_back(probe_set_json(*r));
  j.set("sets", std::move(sets));
  return j.dump();
}

Json to_json(const lint::LintReport& report) {
  Json j = Json::object();
  j.set("backend", "lint");
  j.set("model", lint::to_string(report.model));
  j.set("order", report.order);
  j.set("clean", report.clean());
  j.set("probes_checked", report.probes_checked);
  j.set("probes_flagged", report.probes_flagged);
  j.set("otp_cuts", report.cuts_applied);
  if (report.order >= 2) {
    j.set("pairs_enumerated", report.pairs_enumerated);
    j.set("pairs_deduped", report.pairs_deduped);
  }
  j.set("truncated", report.truncated);
  j.set("sliced", report.sliced);
  j.set("cut_registers", report.cut_registers);
  Json findings = Json::array();
  for (const lint::LintFinding& f : report.findings) {
    Json finding = Json::object();
    finding.set("rule", lint::lint_rule_name(f.rule));
    finding.set("probe", f.probe_name);
    if (f.probe2 != netlist::kNoSignal) finding.set("probe2", f.probe2_name);
    finding.set("offending", string_array(f.offending));
    finding.set("shared_fresh", string_array(f.shared_fresh));
    finding.set("completed", string_array(f.completed));
    finding.set("message", f.message);
    if (f.certificate) {
      const lint::LintCertificate& c = *f.certificate;
      Json cert = Json::object();
      cert.set("available", c.available);
      if (!c.available) {
        cert.set("reason", c.unavailable_reason);
      } else {
        cert.set("secret_bits", string_array(c.secret_bits));
        cert.set("secret_a", c.secret_a);
        cert.set("secret_b", c.secret_b);
        cert.set("tv_distance", c.tv_distance);
        cert.set("observation", c.observation);
        cert.set("count_a", c.count_a);
        cert.set("count_b", c.count_b);
        Json assignment = Json::object();
        for (const auto& [name, value] : c.assignment)
          assignment.set(name, value ? 1 : 0);
        cert.set("assignment", std::move(assignment));
      }
      finding.set("certificate", std::move(cert));
    }
    findings.push_back(std::move(finding));
  }
  j.set("findings", std::move(findings));
  return j;
}

}  // namespace sca::eval
