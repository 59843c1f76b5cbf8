// Workloads and the per-layer pass of the benchmark (see perfbench/README.md
// for why each workload exists and what each metric should move).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "harness.hpp"
#include "src/core/campaign.hpp"
#include "src/gadgets/masked_sbox.hpp"
#include "src/lint/linter.hpp"
#include "src/netlist/ir.hpp"
#include "src/service/job.hpp"
#include "src/service/json.hpp"

namespace sca::service {
class ServiceClient;
}

namespace perfbench {

/// Worker threads of every in-process operation, and evald worker
/// processes (each single-threaded).
inline constexpr unsigned kThreads = 2;
inline constexpr unsigned kWorkers = 2;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny budgets, one operation per loop: exercises every code path fast.
  bool smoke = false;
  /// Self-test hook: invert every expected verdict, so each operation must
  /// be counted as failed.
  bool expect_wrong = false;
  /// Directory for run files (daemon sockets, checkpoints, span dumps).
  std::string out_dir = ".bench_build/runs";
};

/// What one closed loop observed. Latencies of the workload's primary
/// operations (campaign, lint pass, evald verdict) feed the end-to-end
/// metrics; `attempted`/`failed` count every operation, checks included.
struct LoopStats {
  std::vector<double> verdict_s;   ///< primary-operation latency
  std::vector<double> work_per_s;  ///< primary-operation throughput
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void add_check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Campaign counters of the traced operations (per-operation means).
struct CampaignTotals {
  std::size_t ops = 0;
  double simulate = 0, extract = 0, transpose = 0, histogram = 0, merge = 0,
         unattributed = 0;
  std::size_t table_batches = 0, set_shards = 0;
  void add(const sca::eval::CampaignResult& r, double wall_s);
  void report(Metrics& m) const;
};

/// Runs one campaign inside a `campaign` span and lays the result's phase
/// counters out as child spans (sim, common transpose, stats histogram and
/// merge, campaign extract/accumulate); the campaign span's self time is
/// then the phase-unattributed remainder plus campaign-owned phases.
sca::eval::CampaignResult traced_campaign(Tracer& tracer, std::uint64_t parent,
                                          const sca::netlist::Netlist& nl,
                                          const sca::eval::CampaignOptions& o,
                                          double* wall_s);

/// A forked evald daemon (2 single-threaded workers, default staging) with
/// its own socket, cache and work directories.
class Daemon {
 public:
  explicit Daemon(const std::string& dir);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  const std::string& socket() const { return socket_; }
  /// Shuts the daemon down over its socket and reaps it (idempotent).
  void stop();

 private:
  std::string dir_;
  std::string socket_;
  pid_t pid_ = -1;
};

/// One client round trip of an evald job, with timestamps.
struct ServiceRecord {
  bool miss = true;
  double submit_s = 0;      ///< submit -> ack
  double queue_wait_s = 0;  ///< ack -> first stage frame (misses)
  double verdict_s = 0;     ///< submit -> result frame
  std::size_t tickets = 0;
  std::size_t reissued = 0;
  std::uint64_t seed = 0;
  std::string verdict;      ///< result verdict, dumped
  /// Done, hit/miss as expected (cached with zero simulations for a hit),
  /// and the E2 verdict is FAIL.
  bool ok = false;
};

/// Per-layer service metrics from a set of round trips plus the daemon's
/// status counters; `inprocess_s` is the unstaged in-process time of the
/// miss spec (for the per-ticket overhead), `refused` the submissions the
/// daemon refused or that failed on the wire.
void report_service(const std::vector<ServiceRecord>& records,
                    const sca::service::Json& status, double inprocess_s,
                    std::size_t refused, Metrics& m);

/// The paper's Fig. 3 design: masked Sbox with the Eq.(6) Kronecker.
sca::gadgets::MaskedSbox build_e2(sca::netlist::Netlist& nl);

/// The E2 job every service path submits: masked Sbox + Eq.(6), glitch,
/// order 1, fixed 0x00, single-threaded worker tickets.
sca::service::JobSpec e2_job(const std::string& snl, std::size_t sims,
                             std::uint64_t seed);

/// Submits `spec` and waits for its verdict through `client` (watching the
/// stage frames of a miss), recording the timings under `parent`.
ServiceRecord service_round_trip(Tracer& tracer, std::uint64_t parent,
                                 sca::service::ServiceClient& client,
                                 const sca::service::JobSpec& spec, bool miss,
                                 bool expect_wrong);

/// Inputs of the per-layer pass that depend on the workload.
struct LayerInputs {
  /// Builds the workload's design (timed for gadgets.build_s).
  std::function<void(sca::netlist::Netlist&)> build_design;
  sca::lint::LintOptions lint;          ///< certify = false
  bool flagged_design = true;           ///< lint findings expected
  /// Campaign-shaped inputs: design and options of one operation.
  const sca::netlist::Netlist* campaign_nl = nullptr;
  sca::eval::CampaignOptions campaign;
  /// Median lint wall time with certificates and their count, when the
  /// loop measured them (lint_aes); otherwise the pass runs a certified
  /// lint itself.
  double certified_lint_s = 0.0;
  std::size_t certificates = 0;
  /// Budget of the E2 job used by the checkpoint replay and service probe.
  std::size_t e2_job_sims = 0;
  /// The workload's own service round trips (evald workloads), with the
  /// daemon's status, the same-spec in-process time and refusals.
  const std::vector<ServiceRecord>* service_records = nullptr;
  sca::service::Json service_status;
  double service_inprocess_s = 0.0;
  std::size_t service_refused = 0;
  /// Campaign counters of the loop's traced operations, if it ran any.
  const CampaignTotals* campaign_totals = nullptr;
};

/// Runs every layer's measurement and adds the per-layer metrics. Campaign
/// counters and service metrics come from `in` when the loop has them,
/// else from the E2 reference replay and a daemon forked here.
void run_layer_pass(Tracer& tracer, const LayerInputs& in,
                    const std::string& out_dir, std::uint64_t seed, bool smoke,
                    Metrics& m, LoopStats& checks);

/// A benchmark workload: repeated set-up, a closed loop of checked
/// operations, and its per-layer inputs.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything the operations need; called several times so the
  /// set-up time is a median (each call replaces the previous state).
  virtual void setup() = 0;
  /// Runs operations back to back until `seconds` elapse (at least one;
  /// workloads with paired operations finish the pair).
  virtual void loop(double seconds, Tracer& tracer, LoopStats& stats) = 0;
  /// Releases what the loop kept running (the evald daemon), so its
  /// processes are reaped before peak memory is read.
  virtual void teardown() {}
  /// Checks that need work outside the timed window (evald references).
  virtual void finish(LoopStats& stats) { (void)stats; }
  /// Per-layer metrics of the traced run.
  virtual void layers(Tracer& tracer, Metrics& m, LoopStats& checks) = 0;
  /// Peak RSS includes waited-for child processes (the daemon and workers).
  virtual bool has_children() const { return false; }
  /// Work unit of work_per_s, for the human-readable summary.
  virtual const char* work_unit() const = 0;
};

std::unique_ptr<Workload> make_workload(const RunConfig& config);
std::vector<std::string> workload_names();

}  // namespace perfbench
