#include "src/service/job.hpp"

#include <cstdio>

#include "src/common/check.hpp"
#include "src/common/serialize.hpp"

namespace sca::service {

using common::Json;
using common::require;

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kCampaign: return "campaign";
    case JobKind::kLint: return "lint";
    case JobKind::kSearch: return "search";
  }
  return "?";
}

namespace {

JobKind parse_kind(const std::string& s) {
  if (s == "campaign") return JobKind::kCampaign;
  if (s == "lint") return JobKind::kLint;
  if (s == "search") return JobKind::kSearch;
  throw common::Error("job: unknown kind '" + s + "'");
}

eval::ProbeModel parse_model(const std::string& s) {
  if (s == "glitch") return eval::ProbeModel::kGlitch;
  if (s == "transition") return eval::ProbeModel::kGlitchTransition;
  throw common::Error("job: unknown model '" + s + "'");
}

eval::Statistic parse_statistic(const std::string& s) {
  if (s == "gtest") return eval::Statistic::kGTest;
  if (s == "ttest") return eval::Statistic::kWelchTTest;
  throw common::Error("job: unknown statistic '" + s + "'");
}

}  // namespace

Json JobSpec::to_json() const {
  Json j = Json::object();
  j.set("kind", to_string(kind));
  if (!netlist.empty()) j.set("netlist", netlist);
  j.set("model", model == eval::ProbeModel::kGlitchTransition ? "transition"
                                                              : "glitch");
  j.set("order", static_cast<std::int64_t>(order));
  j.set("statistic",
        statistic == eval::Statistic::kWelchTTest ? "ttest" : "gtest");
  j.set("sims", simulations);
  j.set("seed", seed);
  j.set("threshold", threshold);
  if (!fixed_values.empty()) {
    Json fixed = Json::object();
    for (const auto& [group, value] : fixed_values)
      fixed.set(std::to_string(group), static_cast<std::int64_t>(value));
    j.set("fixed", std::move(fixed));
  }
  if (!scope.empty()) j.set("scope", scope);
  if (kind == JobKind::kLint) {
    if (lint_slice) j.set("lint_slice", true);
    if (lint_certify) j.set("lint_certify", true);
  }
  if (kind == JobKind::kSearch) {
    j.set("begin", search_begin);
    j.set("end", search_end);
    j.set("lint_prefilter", search_lint_prefilter);
    j.set("chunk", search_chunk);
    j.set("chunks_per_ticket", search_chunks_per_ticket);
  }
  if (stages) j.set("stages", static_cast<std::int64_t>(stages));
  if (threads) j.set("threads", static_cast<std::int64_t>(threads));
  if (throttle_ms) j.set("throttle_ms", static_cast<std::int64_t>(throttle_ms));
  return j;
}

JobSpec JobSpec::from_json(const Json& j) {
  require(j.is_object(), "job: spec must be a JSON object");
  JobSpec spec;
  spec.kind = parse_kind(j.at("kind").as_string());
  spec.netlist = j.get_string("netlist", "");
  spec.model = parse_model(j.get_string("model", "glitch"));
  spec.order = static_cast<unsigned>(j.get_uint("order", 1));
  require(spec.order >= 1 && spec.order <= 2, "job: order must be 1 or 2");
  spec.statistic = parse_statistic(j.get_string("statistic", "gtest"));
  spec.simulations = j.get_uint("sims", 200'000);
  require(spec.simulations >= 1, "job: sims must be positive");
  spec.seed = j.get_uint("seed", 1);
  spec.threshold = j.get_double("threshold", 7.0);
  if (const Json* fixed = j.get("fixed")) {
    for (const auto& [key, value] : fixed->fields()) {
      const auto group = static_cast<std::uint32_t>(std::stoul(key));
      const std::uint64_t v = value.as_uint();
      require(v <= 0xFF, "job: fixed value out of byte range");
      spec.fixed_values[group] = static_cast<std::uint8_t>(v);
    }
  }
  spec.scope = j.get_string("scope", "");
  spec.lint_slice = j.get_bool("lint_slice", false);
  spec.lint_certify = j.get_bool("lint_certify", false);
  spec.search_begin = j.get_uint("begin", 0);
  spec.search_end = j.get_uint("end", 0);
  spec.search_lint_prefilter = j.get_bool("lint_prefilter", true);
  spec.search_chunk = j.get_uint("chunk", 32);
  spec.search_chunks_per_ticket = j.get_uint("chunks_per_ticket", 1);
  spec.stages = static_cast<unsigned>(j.get_uint("stages", 0));
  spec.threads = static_cast<unsigned>(j.get_uint("threads", 0));
  spec.throttle_ms = static_cast<unsigned>(j.get_uint("throttle_ms", 0));

  if (spec.kind == JobKind::kSearch) {
    require(spec.search_end > spec.search_begin,
            "job: search window needs end > begin");
    require(spec.search_chunk >= 1, "job: search chunk must be positive");
    require(spec.search_chunks_per_ticket >= 1,
            "job: chunks_per_ticket must be positive");
  } else {
    require(!spec.netlist.empty(), "job: netlist text required");
  }
  return spec;
}

std::string JobSpec::cache_key() const {
  common::Fnv1a fp;
  fp.feed(std::string(kEngineVersion));
  fp.feed(std::string(to_string(kind)));
  fp.feed(netlist);
  fp.feed(static_cast<std::uint64_t>(model));
  fp.feed(static_cast<std::uint64_t>(order));
  fp.feed(static_cast<std::uint64_t>(statistic));
  fp.feed(static_cast<std::uint64_t>(simulations));
  fp.feed(seed);
  fp.feed(threshold);
  fp.feed(static_cast<std::uint64_t>(fixed_values.size()));
  for (const auto& [group, value] : fixed_values)
    fp.feed(static_cast<std::uint64_t>(group))
        .feed(static_cast<std::uint64_t>(value));
  fp.feed(scope);
  fp.feed(static_cast<std::uint64_t>(lint_slice ? 1 : 0));
  fp.feed(static_cast<std::uint64_t>(lint_certify ? 1 : 0));
  fp.feed(search_begin);
  fp.feed(search_end);
  fp.feed(static_cast<std::uint64_t>(search_lint_prefilter ? 1 : 0));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp.value()));
  return buf;
}

eval::CampaignOptions JobSpec::campaign_options(
    const netlist::Netlist& nl) const {
  eval::CampaignOptions options;
  options.model = model;
  options.order = order;
  options.statistic = statistic;
  options.simulations = simulations;
  options.seed = seed;
  options.threshold = threshold;
  options.fixed_values = fixed_values;
  options.probe_scope_filter = scope;
  options.threads = threads;
  for (const auto& bus : nl.nonzero_buses())
    options.nonzero_random_buses.push_back(bus);
  return options;
}

}  // namespace sca::service
