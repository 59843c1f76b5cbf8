// Service-mode driver: the paper's E2 experiment and a sharded slice of the
// 13-bit family sweep, both executed through a live evald daemon instead of
// in-process — the deployment shape the evaluation service exists for.
//
// Three properties are scored:
//   * E2 through the daemon (worker pool + one injected SIGKILL) reproduces
//     the paper's FAIL verdict bit-identical to the uninterrupted
//     single-process run — crashes cost re-work, never correctness.
//   * Resubmitting the identical job is served from the verdict cache with
//     zero simulation work.
//   * A search window split into shards submitted as independent service
//     jobs concatenates into exactly the verdict of the unsharded sweep —
//     the distribution contract of the family driver.
//
// Budgets scale with SCA_SIMS; the trajectory record lands in
// SCA_BENCH_JSON as bench "service_mode".

#include <csignal>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench/bench_util.hpp"
#include "src/common/json.hpp"
#include "src/core/report.hpp"
#include "src/core/search.hpp"
#include "src/netlist/textio.hpp"
#include "src/service/client.hpp"
#include "src/service/daemon.hpp"
#include "src/service/job.hpp"
#include "src/service/worker.hpp"

using namespace sca;
using common::Json;

namespace {

void sleep_ms(unsigned ms) {
  timespec ts{};
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1'000'000L;
  ::nanosleep(&ts, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  (void)benchutil::parse_staging(argc, argv);  // accept the common flags
  benchutil::Scorecard score("service_mode");
  const std::size_t sims = benchutil::simulations(20000);
  const std::size_t search_sims = std::max<std::size_t>(500, sims / 40);

  std::printf("Service mode: E2 + family-13 shards through evald\n");
  std::printf("    (campaign budget %zu, search budget %zu — set SCA_SIMS)\n\n",
              sims, search_sims);

  // --- specs and in-process references (computed before any fork) ----------
  gadgets::MaskedSboxOptions sbox_options;
  sbox_options.kron_plan = gadgets::RandomnessPlan::kron1_demeyer_eq6();
  netlist::Netlist sbox_nl;
  gadgets::build_masked_sbox(sbox_nl, sbox_options);

  service::JobSpec e2;
  e2.kind = service::JobKind::kCampaign;
  e2.netlist = netlist::write_snl(sbox_nl);
  e2.simulations = sims;
  e2.fixed_values[0] = 0x00;
  e2.stages = 8;        // ticket granularity
  e2.throttle_ms = 100; // pacing wide enough to inject a SIGKILL mid-ticket

  const std::string reference = [&] {
    eval::CampaignOptions options = e2.campaign_options(sbox_nl);
    return eval::verdict_json(eval::run_fixed_vs_random(sbox_nl, options));
  }();

  // Unsharded reference for the search window [0, 24), chunk 4.
  eval::SecondOrderSearchOptions sweep;
  sweep.simulations = search_sims;
  sweep.begin = 0;
  sweep.end = 24;
  sweep.chunk = 4;
  const Json sweep_reference =
      service::search_verdict_json(eval::search_kron2_family13(sweep));

  // --- the daemon -----------------------------------------------------------
  service::DaemonOptions options;
  const std::string scratch =
      "bench_service_scratch_" + std::to_string(::getpid());
  std::filesystem::create_directories(scratch);
  options.socket_path = scratch + "/evald.sock";
  options.work_dir = scratch + "/work";
  options.cache_dir = scratch + "/cache";
  options.workers = 4;
  const pid_t daemon_pid = ::fork();
  if (daemon_pid == 0) {
    try {
      ::_exit(service::run_daemon(options));
    } catch (...) {
      ::_exit(3);
    }
  }

  int exit_code = 1;
  try {
    service::ServiceClient client(options.socket_path);

    // E2 with an injected worker crash.
    const Json ack = client.submit(e2);
    pid_t victim = -1;
    for (int i = 0; i < 200 && victim < 0; ++i) {
      const Json status = client.status();
      const auto& busy = status.at("busy_pids").items();
      if (!busy.empty()) victim = static_cast<pid_t>(busy.front().as_int());
      if (victim < 0) sleep_ms(20);
    }
    if (victim > 0) ::kill(victim, SIGKILL);
    score.expect_flag("a worker was busy to crash", true, victim > 0);

    const Json result = client.result(ack.at("job").as_string(), true);
    score.expect_flag("E2 through the service completes", true,
                      result.at("status").as_string() == "done");
    score.expect_flag("E2 verdict is FAIL (paper Fig. 3)", false,
                      result.at("verdict").at("pass").as_bool());
    score.expect_flag("crashed ticket was re-issued", true,
                      result.at("tickets_reissued").as_uint() >= 1);
    score.expect_flag("service verdict bit-identical to single-process run",
                      true, result.at("verdict").dump() == reference);

    // Identical resubmission: a cache hit with zero simulation work.
    const Json again = client.submit(e2);
    const Json cached = client.result(again.at("job").as_string(), true);
    score.expect_flag("identical resubmission served from cache", true,
                      again.at("cached").as_bool());
    score.expect_flag("cache hit performs zero simulations", true,
                      cached.at("simulations_done").as_uint() == 0);

    // Family-13 shard driver: [0, 24) as three independent shard jobs.
    std::vector<std::string> shard_jobs;
    for (std::uint64_t lo = 0; lo < 24; lo += 8) {
      service::JobSpec shard;
      shard.kind = service::JobKind::kSearch;
      shard.simulations = search_sims;
      shard.search_begin = lo;
      shard.search_end = lo + 8;
      shard.search_chunk = 4;
      shard_jobs.push_back(
          client.submit(shard).at("job").as_string());
    }
    Json merged = Json::array();
    bool shards_done = true;
    std::uint64_t shard_secure = 0;
    for (const std::string& job : shard_jobs) {
      const Json shard_result = client.result(job, true);
      if (shard_result.at("status").as_string() != "done") {
        shards_done = false;
        continue;
      }
      const Json& verdict = shard_result.at("verdict");
      shard_secure += verdict.at("secure_indices").items().size();
      for (const Json& e : verdict.at("evaluations").items())
        merged.push_back(e);
    }
    score.expect_flag("all search shards complete", true, shards_done);
    Json full = Json::array();
    for (const Json& e : sweep_reference.at("evaluations").items())
      full.push_back(e);
    score.expect_flag("concatenated shards == unsharded sweep", true,
                      merged.dump() == full.dump());

    const Json status = client.status();
    score.note("simulations", sims);
    score.note("search_simulations", search_sims);
    score.note("workers_restarted", status.at("workers_restarted").as_uint());
    score.note("tickets_reissued", status.at("tickets_reissued").as_uint());
    score.note("cache_hits", status.at("cache_hits").as_uint());
    score.note("cache_entries", status.at("cache_entries").as_uint());
    score.note("shard_secure_candidates", shard_secure);
    client.shutdown();
    exit_code = score.exit_code();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_service: %s\n", e.what());
  }

  ::kill(daemon_pid, SIGTERM);
  int status = 0;
  ::waitpid(daemon_pid, &status, 0);
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  std::printf("\nservice mode %s (%.1fs)\n", exit_code == 0 ? "OK" : "FAILED",
              score.seconds());
  return exit_code;
}
