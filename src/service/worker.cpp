#include "src/service/worker.hpp"

#include <csignal>
#include <ctime>
#include <string>

#include <unistd.h>

#include "src/common/check.hpp"
#include "src/core/report.hpp"
#include "src/lint/linter.hpp"
#include "src/netlist/textio.hpp"
#include "src/service/net.hpp"

namespace sca::service {

using common::Json;

namespace {

void sleep_ms(unsigned ms) {
  if (!ms) return;
  timespec ts{};
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1'000'000L;
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

lint::LintOptions lint_options(const JobSpec& spec) {
  lint::LintOptions options;
  options.model = spec.model == eval::ProbeModel::kGlitchTransition
                      ? lint::LintModel::kGlitchTransition
                      : lint::LintModel::kGlitch;
  options.order = spec.order;
  options.scope_filter = spec.scope;
  options.feedback =
      spec.lint_slice ? lint::FeedbackMode::kSlice : lint::FeedbackMode::kReject;
  options.certify = spec.lint_certify;
  options.threads = spec.threads;
  return options;
}

eval::SecondOrderSearchOptions search_options(const JobSpec& spec,
                                              const std::string& ckpt) {
  eval::SecondOrderSearchOptions options;
  options.model = spec.model;
  options.order = spec.order;
  options.simulations = spec.simulations;
  options.seed = spec.seed;
  options.threshold = spec.threshold;
  options.threads = spec.threads;
  options.lint_prefilter = spec.search_lint_prefilter;
  options.begin = spec.search_begin;
  options.end = spec.search_end;
  options.chunk = spec.search_chunk;
  options.checkpoint_path = ckpt;
  // Unlike the campaign engine, the sweep treats a missing checkpoint under
  // resume=true as an error, so only resume once the first ticket wrote one.
  options.resume = ::access(ckpt.c_str(), F_OK) == 0;
  options.stop_after_chunks = spec.search_chunks_per_ticket;
  return options;
}

/// One executed ticket: whether the job finished, its verdict when it did,
/// and progress counters for the daemon's status report.
struct TicketOutcome {
  bool done = false;
  Json verdict;  // null unless done
  std::size_t steps_done = 0;
  std::size_t steps_total = 0;
  std::size_t simulations_done = 0;
};

TicketOutcome run_campaign_ticket(const JobSpec& spec, const std::string& ckpt,
                                  const std::string& job_id, std::uint64_t seq,
                                  int fd) {
  const netlist::Netlist nl = netlist::parse_snl(spec.netlist);
  eval::CampaignOptions options = spec.campaign_options(nl);
  options.stages = spec.stages ? spec.stages : 1;
  options.checkpoint_path = ckpt;
  options.resume = true;
  // One stage per ticket: resuming the job checkpoint and stopping after a
  // single stage makes a crashed worker cost at most one stage of re-work,
  // and the staged-campaign contract keeps the final statistics
  // bit-identical to an uninterrupted run.
  options.stop_after_stage = 1;
  options.on_stage = [&](const eval::StageReport& report) {
    Json frame = eval::to_json(report);
    frame.set("job", job_id);
    frame.set("seq", seq);
    send_all(fd, frame.dump() + "\n");
  };
  const eval::CampaignResult result = eval::run_fixed_vs_random(nl, options);
  TicketOutcome out;
  out.done = !result.interrupted;
  out.steps_done = result.stages_completed;
  out.steps_total = result.stages_total;
  out.simulations_done = result.simulations_done;
  if (out.done) out.verdict = Json::parse(eval::verdict_json(result));
  return out;
}

TicketOutcome run_lint_ticket(const JobSpec& spec) {
  const netlist::Netlist nl = netlist::parse_snl(spec.netlist);
  const lint::LintReport report = lint::run_lint(nl, lint_options(spec));
  TicketOutcome out;
  out.done = true;
  out.steps_done = 1;
  out.steps_total = 1;
  out.verdict = eval::to_json(report);
  return out;
}

TicketOutcome run_search_ticket(const JobSpec& spec, const std::string& ckpt,
                                const std::string& job_id, std::uint64_t seq,
                                int fd) {
  const eval::SecondOrderSearchResult result =
      eval::search_kron2_family13(search_options(spec, ckpt));
  Json frame = Json::object();
  frame.set("backend", "search");
  frame.set("type", "stage");
  frame.set("job", job_id);
  frame.set("seq", seq);
  frame.set("chunks_done", result.chunks_done);
  frame.set("chunks_total", result.chunks_total);
  frame.set("evaluated", result.evaluations.size());
  frame.set("lint_rejected", result.lint_rejected);
  send_all(fd, frame.dump() + "\n");
  TicketOutcome out;
  out.done = result.complete;
  out.steps_done = result.chunks_done;
  out.steps_total = result.chunks_total;
  out.simulations_done = result.expensive_evaluations * spec.simulations;
  if (out.done) out.verdict = search_verdict_json(result);
  return out;
}

}  // namespace

Json search_verdict_json(const eval::SecondOrderSearchResult& result) {
  Json v = Json::object();
  v.set("backend", "search");
  v.set("type", "verdict");
  v.set("begin", result.begin);
  v.set("end", result.end);
  v.set("candidates", result.end - result.begin);
  v.set("lint_rejected", result.lint_rejected);
  v.set("expensive_evaluations", result.expensive_evaluations);
  Json secure = Json::array();
  for (const std::uint64_t index : result.secure_indices())
    secure.push_back(index);
  v.set("secure_indices", std::move(secure));
  Json evals = Json::array();
  for (const eval::SecondOrderCandidateResult& r : result.evaluations) {
    Json e = Json::object();
    e.set("index", r.index);
    e.set("lint_rejected", r.lint_rejected);
    e.set("secure", r.secure);
    e.set("severity", r.severity);
    if (!r.worst_probe.empty()) e.set("worst", r.worst_probe);
    evals.push_back(std::move(e));
  }
  v.set("evaluations", std::move(evals));
  return v;
}

int worker_main(int fd) {
  std::signal(SIGPIPE, SIG_IGN);
  {
    Json ready = Json::object();
    ready.set("type", "ready");
    ready.set("pid", static_cast<std::int64_t>(::getpid()));
    if (!send_all(fd, ready.dump() + "\n")) return 1;
  }
  std::string carry, line;
  while (recv_line(fd, carry, line)) {
    if (line.empty()) continue;
    std::string job_id;
    std::uint64_t seq = 0;
    try {
      const Json frame = Json::parse(line);
      const std::string type = frame.get_string("type", "");
      if (type == "shutdown") return 0;
      common::require(type == "ticket", "worker: unexpected frame '" + type +
                                            "' from daemon");
      job_id = frame.at("job").as_string();
      seq = frame.get_uint("seq", 0);
      const std::string ckpt = frame.get_string("ckpt", "");
      const JobSpec spec = JobSpec::from_json(frame.at("spec"));
      // Pacing hook: gives crash-injection tests a window in which the
      // worker is reliably "busy on a ticket" before any engine work runs.
      sleep_ms(spec.throttle_ms);
      TicketOutcome out;
      switch (spec.kind) {
        case JobKind::kCampaign:
          out = run_campaign_ticket(spec, ckpt, job_id, seq, fd);
          break;
        case JobKind::kLint: out = run_lint_ticket(spec); break;
        case JobKind::kSearch:
          out = run_search_ticket(spec, ckpt, job_id, seq, fd);
          break;
      }
      Json reply = Json::object();
      reply.set("type", "ticket_done");
      reply.set("job", job_id);
      reply.set("seq", seq);
      reply.set("done", out.done);
      reply.set("steps_done", out.steps_done);
      reply.set("steps_total", out.steps_total);
      reply.set("simulations_done", out.simulations_done);
      if (out.done) reply.set("verdict", std::move(out.verdict));
      if (!send_all(fd, reply.dump() + "\n")) return 1;
    } catch (const std::exception& e) {
      Json reply = Json::object();
      reply.set("type", "ticket_error");
      reply.set("job", job_id);
      reply.set("seq", seq);
      reply.set("error", std::string(e.what()));
      if (!send_all(fd, reply.dump() + "\n")) return 1;
    }
  }
  return 0;  // daemon closed the pipe: clean exit
}

}  // namespace sca::service
