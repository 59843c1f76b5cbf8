// The benchmark's workloads: closed loops over the paper's evaluation flows,
// each operation's output checked against the verdict the paper (and the
// repo's golden tests) pin.
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "src/core/report.hpp"
#include "src/gadgets/kronecker.hpp"
#include "src/gadgets/masked_aes.hpp"
#include "src/netlist/textio.hpp"
#include "src/service/client.hpp"

namespace perfbench {

using sca::eval::CampaignOptions;
using sca::eval::CampaignResult;
using sca::netlist::Netlist;
using sca::service::Json;

// --- shared helpers ---------------------------------------------------------

void CampaignTotals::add(const CampaignResult& r, double wall_s) {
  const double t = std::max(1u, r.threads_used);
  ++ops;
  simulate += r.simulate_seconds;
  extract += r.extract_seconds;
  transpose += r.transpose_seconds;
  histogram += r.histogram_seconds;
  merge += r.merge_seconds;
  unattributed += wall_s - (r.simulate_seconds + r.accumulate_seconds +
                            r.merge_seconds) / t;
  table_batches = r.table_batches;
  set_shards = r.set_shards;
}

void CampaignTotals::report(Metrics& m) const {
  const double n = static_cast<double>(std::max<std::size_t>(1, ops));
  m.set("campaign.simulate_cpu_s", simulate / n, "s", ops);
  m.set("campaign.extract_cpu_s", extract / n, "s", ops);
  m.set("campaign.transpose_cpu_s", transpose / n, "s", ops);
  m.set("campaign.histogram_cpu_s", histogram / n, "s", ops);
  m.set("campaign.merge_cpu_s", merge / n, "s", ops);
  m.set("campaign.unattributed_s", unattributed / n, "s", ops);
  m.set("campaign.table_batches", static_cast<double>(table_batches), "count");
  m.set("campaign.set_shards", static_cast<double>(set_shards), "count");
}

CampaignResult traced_campaign(Tracer& tracer, std::uint64_t parent,
                               const Netlist& nl, const CampaignOptions& o,
                               double* wall_s) {
  CampaignResult r;
  std::uint64_t span = 0;
  double t0 = 0, wall = 0;
  {
    Scope s(tracer, "campaign", "run_fixed_vs_random", parent);
    span = s.id();
    t0 = now_s();
    r = sca::eval::run_fixed_vs_random(nl, o);
    wall = now_s() - t0;
  }
  if (wall_s) *wall_s = wall;
  if (tracer.enabled()) {
    // A phase's CPU seconds over threads_used is its share of the wall
    // interval; the phases are laid end to end from the span start.
    const double t = std::max(1u, r.threads_used);
    const struct {
      const char* layer;
      const char* name;
      double cpu;
    } phases[] = {
        {"sim", "simulate", r.simulate_seconds},
        {"campaign", "extract", r.extract_seconds},
        {"common", "transpose", r.transpose_seconds},
        {"stats", "histogram", r.histogram_seconds},
        {"campaign", "accumulate_other",
         r.accumulate_seconds - r.extract_seconds - r.transpose_seconds -
             r.histogram_seconds},
        {"stats", "merge", r.merge_seconds},
    };
    // Phase timers can sum past the wall interval (they overlap at phase
    // boundaries); the layout then scales them to fit, and the raw
    // counters stay in the campaign.* metrics.
    double sum = 0;
    for (const auto& p : phases) sum += std::max(0.0, p.cpu) / t;
    const double fit = sum > wall ? wall / sum : 1.0;
    double at = t0;
    for (const auto& p : phases) {
      const double d = std::max(0.0, p.cpu) / t * fit;
      tracer.record(p.layer, p.name, span, at, at + d);
      at += d;
    }
  }
  return r;
}

namespace {

bool time_up(double start, double seconds, std::size_t ops) {
  return ops > 0 && now_s() - start >= seconds;
}

LayerInputs e2_layer_inputs(const RunConfig& c) {
  LayerInputs in;
  in.build_design = [](Netlist& nl) { build_e2(nl); };
  in.lint.model = sca::lint::LintModel::kGlitch;
  in.lint.threads = kThreads;
  in.e2_job_sims = c.smoke ? 16384 : 200000;
  return in;
}

// --- e2_o1 ------------------------------------------------------------------

// Paper Fig. 3: masked Sbox with the Eq.(6) Kronecker, glitch model, order
// 1, fixed 0x00 — expected FAIL with every leaking set inside kron gate G7.
class E2Workload : public Workload {
 public:
  explicit E2Workload(const RunConfig& c) : config_(c) {}

  void setup() override {
    nl_ = Netlist();
    b2m_ = build_e2(nl_).rand_b2m;
  }

  CampaignOptions options(std::uint64_t seed) const {
    CampaignOptions o;
    o.model = sca::eval::ProbeModel::kGlitch;
    o.order = 1;
    o.simulations = config_.smoke ? 16384 : kSims;
    o.seed = seed;
    o.threads = kThreads;
    o.fixed_values[0] = 0x00;
    o.nonzero_random_buses = {b2m_};
    return o;
  }

  void loop(double seconds, Tracer& tracer, LoopStats& stats) override {
    const double start = now_s();
    for (std::size_t i = 0; !time_up(start, seconds, i); ++i) {
      Scope op(tracer, "bench", "e2_o1.op");
      double wall = 0;
      const CampaignResult r = traced_campaign(
          tracer, op.id(), nl_, options(derive_seed(config_.seed, 1, ++ops_)),
          &wall);
      Scope chk(tracer, "bench", "check", op.id());
      bool g7 = !r.pass && r.leaking_sets > 0;
      for (const auto& s : r.results)
        if (s.leaking && s.name.find("sbox.kron.G7") == std::string::npos)
          g7 = false;
      stats.verdict_s.push_back(wall);
      stats.work_per_s.push_back(2.0 * r.simulations_per_group / wall);
      stats.add_check(g7 != config_.expect_wrong);
      if (tracer.enabled()) totals_.add(r, wall);
      if (config_.smoke) break;
    }
  }

  void layers(Tracer& tracer, Metrics& m, LoopStats& checks) override {
    LayerInputs in = e2_layer_inputs(config_);
    in.campaign_nl = &nl_;
    in.campaign = options(derive_seed(config_.seed, 2, 0));
    in.campaign_totals = &totals_;
    run_layer_pass(tracer, in, config_.out_dir, config_.seed, config_.smoke, m,
                   checks);
  }

  const char* work_unit() const override { return "sims/s"; }

 private:
  static constexpr std::size_t kSims = std::size_t{1} << 20;

  RunConfig config_;
  Netlist nl_;
  sca::gadgets::Bus b2m_;
  std::uint64_t ops_ = 0;
  CampaignTotals totals_;
};

// --- kron2_o2 ---------------------------------------------------------------

Netlist kronecker3(const sca::gadgets::RandomnessPlan& plan) {
  Netlist nl;
  std::vector<sca::gadgets::Bus> shares;
  for (std::uint32_t i = 0; i < 3; ++i)
    shares.push_back(sca::gadgets::make_input_bus(
        nl, 8, sca::netlist::InputRole::kShare, "b" + std::to_string(i) + "_",
        0, i));
  sca::gadgets::build_kronecker(nl, shares, plan);
  return nl;
}

// E9 shape: 3-share Kronecker, glitch+transition, order 2, alternating the
// fully fresh plan (expected PASS) and the naive 13-bit plan (expected FAIL).
class Kron2Workload : public Workload {
 public:
  explicit Kron2Workload(const RunConfig& c) : config_(c) {}

  void setup() override {
    full_ = kronecker3(sca::gadgets::RandomnessPlan::kron2_full_fresh());
    naive_ = kronecker3(sca::gadgets::RandomnessPlan::kron2_naive13());
  }

  CampaignOptions options(std::uint64_t seed) const {
    CampaignOptions o;
    o.model = sca::eval::ProbeModel::kGlitchTransition;
    o.order = 2;
    o.simulations = config_.smoke ? 4096 : kSims;
    o.seed = seed;
    o.threads = kThreads;
    o.fixed_values[0] = 0x00;
    o.table_memory_budget = kTableBudget;
    return o;
  }

  void loop(double seconds, Tracer& tracer, LoopStats& stats) override {
    const double start = now_s();
    // Whole PASS/FAIL pairs only, so every run's median mixes both designs
    // in the same proportion.
    for (std::size_t i = 0; i % 2 == 1 || !time_up(start, seconds, i); ++i) {
      const bool full = i % 2 == 0;
      Scope op(tracer, "bench", full ? "kron2_full.op" : "kron2_naive13.op");
      double wall = 0;
      const CampaignResult r = traced_campaign(
          tracer, op.id(), full ? full_ : naive_,
          options(derive_seed(config_.seed, 1, ++ops_)), &wall);
      Scope chk(tracer, "bench", "check", op.id());
      stats.verdict_s.push_back(wall);
      stats.work_per_s.push_back(2.0 * r.simulations_per_group / wall);
      stats.add_check((r.pass == full) != config_.expect_wrong);
      if (tracer.enabled()) totals_.add(r, wall);
      if (config_.smoke && i == 1) break;
    }
  }

  void layers(Tracer& tracer, Metrics& m, LoopStats& checks) override {
    LayerInputs in = e2_layer_inputs(config_);
    in.build_design = [](Netlist& nl) {
      nl = kronecker3(sca::gadgets::RandomnessPlan::kron2_naive13());
    };
    in.lint.order = 2;  // glitch-only, as the E9 bench lints it
    in.campaign_nl = &full_;
    in.campaign = options(derive_seed(config_.seed, 2, 0));
    in.campaign_totals = &totals_;
    run_layer_pass(tracer, in, config_.out_dir, config_.seed, config_.smoke, m,
                   checks);
  }

  const char* work_unit() const override { return "sims/s"; }

 private:
  static constexpr std::size_t kSims = 20000;
  /// Table memory per batch. The engine's 4 GiB default peaks at 5.3 GB
  /// resident on this campaign; 1 GiB keeps the benchmark's footprint
  /// small at the price of more table batches.
  static constexpr std::size_t kTableBudget = std::size_t{1} << 30;

  RunConfig config_;
  Netlist full_, naive_;
  std::uint64_t ops_ = 0;
  CampaignTotals totals_;
};

// --- lint_aes ---------------------------------------------------------------

// Whole-design lint of MaskedAes128 with Eq.(6): slice the register
// feedback, sweep every probe, certify every finding. Expected: 120 R1
// findings at G7 over the 20 Sbox instances, each with a certificate.
class LintAesWorkload : public Workload {
 public:
  explicit LintAesWorkload(const RunConfig& c) : config_(c) {}

  static void build(Netlist& nl) {
    sca::gadgets::MaskedAesOptions o;
    o.kron_plan = sca::gadgets::RandomnessPlan::kron1_demeyer_eq6();
    sca::gadgets::build_masked_aes128(nl, o);
  }

  void setup() override {
    nl_ = Netlist();
    build(nl_);
  }

  static sca::lint::LintOptions options(bool certify) {
    sca::lint::LintOptions o;
    o.model = sca::lint::LintModel::kGlitch;
    o.feedback = sca::lint::FeedbackMode::kSlice;
    o.certify = certify;
    o.threads = kThreads;
    return o;
  }

  void loop(double seconds, Tracer& tracer, LoopStats& stats) override {
    const double start = now_s();
    for (std::size_t i = 0; !time_up(start, seconds, i); ++i) {
      Scope op(tracer, "bench", "lint_aes.op");
      const double t0 = now_s();
      sca::lint::LintReport r;
      {
        Scope s(tracer, "lint", "run_lint", op.id());
        r = sca::lint::run_lint(nl_, options(/*certify=*/true));
      }
      const double wall = now_s() - t0;
      Scope chk(tracer, "bench", "check", op.id());
      std::set<std::string> instances;
      std::size_t certified = 0;
      bool ok = r.findings.size() == 120 && r.sliced;
      for (const auto& f : r.findings) {
        const auto pos = f.probe_name.find(".kron.G7");
        const bool cert = f.certificate && f.certificate->available &&
                          f.certificate->count_a > f.certificate->count_b;
        certified += cert;
        ok &= f.rule == sca::lint::LintRule::kR1FreshReuse &&
              pos != std::string::npos && cert;
        if (pos != std::string::npos)
          instances.insert(f.probe_name.substr(0, pos));
      }
      stats.verdict_s.push_back(wall);
      stats.work_per_s.push_back(static_cast<double>(r.probes_checked) / wall);
      stats.add_check((ok && instances.size() == 20) != config_.expect_wrong);
      if (tracer.enabled()) {
        certified_s_.push_back(wall);
        certificates_ = certified;
      }
      if (config_.smoke) break;
    }
  }

  void layers(Tracer& tracer, Metrics& m, LoopStats& checks) override {
    // No campaign runs in this workload: the campaign-shaped layers use
    // the E2 design and budget.
    LayerInputs in = e2_layer_inputs(config_);
    in.build_design = build;
    in.lint = options(/*certify=*/false);
    in.certified_lint_s = median(certified_s_);
    in.certificates = certificates_;
    Netlist e2;
    in.campaign.nonzero_random_buses = {build_e2(e2).rand_b2m};
    in.campaign_nl = &e2;
    in.campaign.simulations = config_.smoke ? 16384 : std::size_t{1} << 20;
    in.campaign.seed = derive_seed(config_.seed, 2, 0);
    in.campaign.threads = kThreads;
    in.campaign.fixed_values[0] = 0x00;
    run_layer_pass(tracer, in, config_.out_dir, config_.seed, config_.smoke, m,
                   checks);
  }

  const char* work_unit() const override { return "probes/s"; }

 private:
  RunConfig config_;
  Netlist nl_;
  std::vector<double> certified_s_;
  std::size_t certificates_ = 0;
};

// --- evald_e2 / evald_hit -----------------------------------------------------

// Two client connections in closed loops against a forked daemon with two
// single-threaded workers and default staging. evald_e2: each client
// submits 4 fresh-seed E2 jobs (cache misses), each followed by 20
// resubmissions of completed specs (cache hits). evald_hit: one miss per
// client, then 600 resubmissions. The primary operations are the misses
// resp. the hits.
class EvaldWorkload : public Workload {
 public:
  EvaldWorkload(const RunConfig& c, bool hits)
      : config_(c), hits_primary_(hits) {}

  void setup() override {
    nl_ = Netlist();
    build_e2(nl_);
    snl_ = sca::netlist::write_snl(nl_);
    daemon_ = std::make_unique<Daemon>(config_.out_dir + "/evald-" +
                                       std::to_string(++setups_));
  }

  void loop(double seconds, Tracer& tracer, LoopStats& stats) override {
    (void)seconds;  // fixed request counts, see client_loop
    std::vector<ServiceRecord> per_client[2];
    std::string errors[2];
    {
      std::vector<std::thread> clients;
      for (unsigned c = 0; c < 2; ++c)
        clients.emplace_back([&, c] {
          try {
            client_loop(c, tracer, per_client[c]);
          } catch (const std::exception& e) {
            errors[c] = e.what();
          }
        });
      for (auto& t : clients) t.join();
    }
    for (unsigned c = 0; c < 2; ++c) {
      if (!errors[c].empty()) {
        std::fprintf(stderr, "evald client %u: %s\n", c, errors[c].c_str());
        ++refused_;
        stats.add_check(false);
      }
      for (ServiceRecord& r : per_client[c]) {
        if (r.miss != hits_primary_) {
          stats.verdict_s.push_back(r.verdict_s);
          stats.work_per_s.push_back(
              r.miss ? 2.0 * static_cast<double>(job_sims()) / r.verdict_s
                     : 1.0 / r.verdict_s);
        }
        stats.add_check(r.ok);
        records_.push_back(std::move(r));
      }
    }
    status_ = sca::service::ServiceClient(daemon_->socket()).status();
  }

  void finish(LoopStats& stats) override {
    // Every service verdict, hit or miss, must be byte-identical to the
    // in-process verdict of the same spec (computed after the window).
    std::map<std::uint64_t, std::string> reference;
    for (const ServiceRecord& r : records_) {
      auto it = reference.find(r.seed);
      if (it == reference.end()) {
        CampaignOptions o =
            e2_job(snl_, job_sims(), r.seed).campaign_options(nl_);
        // Single-threaded like the workers in the traced run, whose
        // per-ticket overhead compares against this time.
        o.threads = config_.trace ? 1 : kThreads;
        const double t0 = now_s();
        const CampaignResult ref = sca::eval::run_fixed_vs_random(nl_, o);
        inprocess_s_.push_back(now_s() - t0);
        it = reference
                 .emplace(r.seed,
                          Json::parse(sca::eval::verdict_json(ref)).dump())
                 .first;
      }
      if (r.ok && it->second != r.verdict) ++stats.failed;
    }
  }

  void layers(Tracer& tracer, Metrics& m, LoopStats& checks) override {
    LayerInputs in = e2_layer_inputs(config_);
    in.campaign_nl = &nl_;
    in.campaign = e2_job(snl_, job_sims(), derive_seed(config_.seed, 2, 0))
                      .campaign_options(nl_);
    in.service_records = &records_;
    in.service_status = status_;
    in.service_inprocess_s = median(inprocess_s_);
    in.service_refused = refused_;
    run_layer_pass(tracer, in, config_.out_dir, config_.seed, config_.smoke, m,
                   checks);
  }

  void teardown() override { daemon_.reset(); }
  bool has_children() const override { return true; }
  const char* work_unit() const override {
    return hits_primary_ ? "hits/s" : "sims/s";
  }

 private:
  std::size_t job_sims() const { return config_.smoke ? 16384 : 200000; }

  // A fixed number of requests per client: the daemon keeps every job
  // record (spec and verdict, ~1 MB each) for its lifetime, so peak memory
  // grows with the request count — a time-bound loop would make it vary
  // with throughput.
  void client_loop(unsigned c, Tracer& tracer, std::vector<ServiceRecord>& out) {
    sca::service::ServiceClient client(daemon_->socket());
    const std::size_t misses = hits_primary_ || config_.smoke ? 1 : kMisses;
    const std::size_t hits = config_.smoke ? 4
                             : hits_primary_ ? kHitOnlyHits
                                             : kMisses * kHitsPerMiss;
    std::vector<std::uint64_t> done;  // seeds with a finished verdict
    for (std::size_t m = 0, h = 0; m < misses || h < hits;) {
      // Misses spread evenly between the hits; miss seeds never repeat
      // across the loops of one run.
      const bool miss = m < misses && (h >= hits || h * misses >= m * hits);
      if (miss) ++m;
      const std::uint64_t seed =
          miss ? derive_seed(config_.seed, 10 + c, ++miss_index_[c])
               : done[h++ % done.size()];
      Scope op(tracer, "bench", miss ? "evald.miss" : "evald.hit");
      out.push_back(service_round_trip(tracer, op.id(), client,
                                       e2_job(snl_, job_sims(), seed), miss,
                                       config_.expect_wrong));
      if (miss) done.push_back(out.back().seed);
    }
  }

  // Per client. evald_hit: 2 x 600 hits leave more than ten samples
  // beyond p99.
  static constexpr std::size_t kMisses = 4;
  static constexpr std::size_t kHitsPerMiss = 20;
  static constexpr std::size_t kHitOnlyHits = 600;

  RunConfig config_;
  bool hits_primary_;
  Netlist nl_;
  std::string snl_;
  std::unique_ptr<Daemon> daemon_;
  unsigned setups_ = 0;
  std::vector<ServiceRecord> records_;
  std::vector<double> inprocess_s_;
  std::size_t refused_ = 0;
  std::uint64_t miss_index_[2] = {0, 0};
  Json status_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"e2_o1", "kron2_o2", "lint_aes", "evald_e2", "evald_hit"};
}

std::unique_ptr<Workload> make_workload(const RunConfig& config) {
  if (config.workload == "e2_o1") return std::make_unique<E2Workload>(config);
  if (config.workload == "kron2_o2")
    return std::make_unique<Kron2Workload>(config);
  if (config.workload == "lint_aes")
    return std::make_unique<LintAesWorkload>(config);
  if (config.workload == "evald_e2" || config.workload == "evald_hit")
    return std::make_unique<EvaldWorkload>(config,
                                           config.workload == "evald_hit");
  return nullptr;
}

}  // namespace perfbench
