// Per-layer pass of the traced run, plus the evald plumbing shared by the
// service workloads. Every measurement times a call into one module's
// public functions from here, or reads a counter those calls return.
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include <sys/wait.h>
#include <unistd.h>

#include "bench.hpp"
#include "src/common/bitops.hpp"
#include "src/common/rng.hpp"
#include "src/core/accplan.hpp"
#include "src/core/checkpoint.hpp"
#include "src/core/probes.hpp"
#include "src/core/report.hpp"
#include "src/netlist/cone.hpp"
#include "src/netlist/slice.hpp"
#include "src/netlist/textio.hpp"
#include "src/service/client.hpp"
#include "src/service/daemon.hpp"
#include "src/sim/tape.hpp"
#include "src/stats/gtest_stat.hpp"
#include "src/verif/unroll.hpp"

namespace perfbench {

using sca::eval::CampaignOptions;
using sca::eval::CampaignResult;
using sca::netlist::Netlist;
using sca::netlist::SignalId;
using sca::service::JobSpec;
using sca::service::Json;

// --- evald plumbing ---------------------------------------------------------

Daemon::Daemon(const std::string& dir) : dir_(dir) {
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  sca::service::DaemonOptions o;
  o.socket_path = dir_ + "/evald.sock";
  o.work_dir = dir_ + "/work";
  o.cache_dir = dir_ + "/cache";
  o.workers = kWorkers;
  socket_ = o.socket_path;
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    int code = 3;
    try {
      code = sca::service::run_daemon(o);
    } catch (...) {
    }
    ::_exit(code);
  }
  // Ready = the socket accepts a connection; poll at 1 ms.
  for (int i = 0; i < 10000; ++i) {
    try {
      sca::service::ServiceClient probe(socket_, 1);
      return;
    } catch (const std::exception&) {
      ::usleep(1000);
    }
  }
  stop();
  throw std::runtime_error("evald did not come up");
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
  if (pid_ <= 0) return;
  try {
    sca::service::ServiceClient(socket_, 1).shutdown();
  } catch (const std::exception&) {
    ::kill(pid_, SIGTERM);
  }
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

sca::gadgets::MaskedSbox build_e2(Netlist& nl) {
  sca::gadgets::MaskedSboxOptions o;
  o.kron_plan = sca::gadgets::RandomnessPlan::kron1_demeyer_eq6();
  return sca::gadgets::build_masked_sbox(nl, o);
}

JobSpec e2_job(const std::string& snl, std::size_t sims, std::uint64_t seed) {
  JobSpec spec;
  spec.kind = sca::service::JobKind::kCampaign;
  spec.netlist = snl;
  spec.simulations = sims;
  spec.seed = seed & ((std::uint64_t{1} << 53) - 1);  // a JSON-safe integer
  spec.fixed_values[0] = 0x00;
  spec.threads = 1;
  return spec;
}

ServiceRecord service_round_trip(Tracer& tracer, std::uint64_t parent,
                                 sca::service::ServiceClient& client,
                                 const JobSpec& spec, bool miss,
                                 bool expect_wrong) {
  ServiceRecord rec;
  rec.miss = miss;
  rec.seed = spec.seed;
  const double t0 = now_s();
  Json ack;
  {
    Scope s(tracer, "service", "submit", parent);
    ack = client.submit(spec);
  }
  const double t_ack = now_s();
  rec.submit_s = t_ack - t0;
  const std::string job = ack.at("job").as_string();
  Json result;
  if (miss) {
    Scope s(tracer, "service", "watch", parent);
    double first = 0.0;
    result = client.watch(job, [&](const Json&) {
      if (first == 0.0) first = now_s();
    });
    rec.queue_wait_s = (first > 0.0 ? first : now_s()) - t_ack;
  } else {
    Scope s(tracer, "service", "result", parent);
    result = client.result(job, /*wait=*/true);
  }
  rec.verdict_s = now_s() - t0;
  Scope chk(tracer, "bench", "check", parent);
  rec.tickets = result.get_uint("tickets_issued", 0);
  rec.reissued = result.get_uint("tickets_reissued", 0);
  const bool done = result.get_string("status", "") == "done";
  if (done) rec.verdict = result.at("verdict").dump();
  const bool cached = ack.at("cached").as_bool() &&
                      result.get_bool("cached", false) &&
                      result.get_uint("simulations_done", 1) == 0;
  const bool fail_verdict =
      done && !result.at("verdict").get_bool("pass", true);
  rec.ok = done && (miss ? !ack.at("cached").as_bool() : cached) &&
           (fail_verdict != expect_wrong);
  return rec;
}

void report_service(const std::vector<ServiceRecord>& records,
                    const Json& status, double inprocess_s, std::size_t refused,
                    Metrics& m) {
  std::vector<double> submit, queue, ticket, tickets, hit_ms, miss_s;
  for (const ServiceRecord& r : records) {
    submit.push_back(r.submit_s);
    if (r.miss) {
      queue.push_back(r.queue_wait_s);
      miss_s.push_back(r.verdict_s);
      tickets.push_back(static_cast<double>(r.tickets));
      if (r.tickets) ticket.push_back((r.verdict_s - r.submit_s) / r.tickets);
    } else {
      hit_ms.push_back(r.verdict_s * 1e3);
    }
  }
  const double n_tickets = median(tickets);
  m.set("service.submit_s", median(submit), "s", submit.size());
  m.set("service.queue_wait_s", median(queue), "s", queue.size());
  m.set("service.ticket_s", median(ticket), "s", ticket.size());
  m.set("service.tickets", n_tickets, "count", tickets.size());
  m.set("service.ticket_overhead_s",
        n_tickets > 0 ? (median(miss_s) - inprocess_s) / n_tickets : 0.0, "s",
        miss_s.size());
  m.set("service.cache_lookup_ms", median(hit_ms), "ms", hit_ms.size());
  m.set("service.cache_hit_p99_ms", quantile(hit_ms, 0.99), "ms",
        hit_ms.size());
  const double hits = static_cast<double>(status.get_uint("cache_hits", 0));
  const double lookups =
      hits + static_cast<double>(status.get_uint("cache_misses", 0));
  m.set("service.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
        "ratio");
  m.set("service.tickets_reissued",
        static_cast<double>(status.get_uint("tickets_reissued", 0)), "count");
  m.set("service.workers_restarted",
        static_cast<double>(status.get_uint("workers_restarted", 0)), "count");
  m.set("service.refused", static_cast<double>(refused), "count");
}

// --- the per-layer pass -----------------------------------------------------

namespace {

volatile std::uint64_t g_sink = 0;

/// Median wall time of `reps` calls of `fn`, each inside a span.
template <typename Fn>
double timed(Tracer& tracer, std::uint64_t parent, const char* layer,
             const char* name, int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    Scope s(tracer, layer, name, parent);
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

/// Calls `fn` until `min_s` elapsed; returns calls per second.
template <typename Fn>
double rate(Tracer& tracer, std::uint64_t parent, const char* layer,
            const char* name, double min_s, Fn&& fn) {
  Scope s(tracer, layer, name, parent);
  const double t0 = now_s();
  std::size_t calls = 0;
  double t = 0;
  do {
    fn();
    ++calls;
    t = now_s() - t0;
  } while (t < min_s);
  return static_cast<double>(calls) / t;
}

/// Campaign-shaped probe sets: the universe, union-observation dedup and
/// the per-set shape the campaign's planner consumes. Mirrors the set
/// preparation inside eval::run_fixed_vs_random (exact-key limit, direct
/// tables), which the library does not expose on its own.
struct PreparedSets {
  std::vector<std::vector<std::size_t>> dense;
  std::vector<std::size_t> bits;
  std::vector<bool> compacted, direct;
  std::size_t aliases = 0;
};

PreparedSets prepare_sets(Tracer& tracer, std::uint64_t parent, const Netlist& nl,
                          const CampaignOptions& o, Metrics& m) {
  std::vector<sca::eval::Probe> universe;
  std::unique_ptr<sca::netlist::StableSupport> supports;
  const double universe_s = timed(tracer, parent, "probes", "universe", 1, [&] {
    supports = std::make_unique<sca::netlist::StableSupport>(nl);
    universe = sca::eval::build_probe_universe(nl, *supports,
                                               o.probe_scope_filter);
  });
  m.set("probes.universe_s", universe_s, "s");
  m.set("probes.universe_size", static_cast<double>(universe.size()), "count");

  const bool transitions =
      o.model == sca::eval::ProbeModel::kGlitchTransition;
  std::size_t bin_cap_bits = 0;
  while ((std::size_t{2} << bin_cap_bits) <= o.max_bins_per_set &&
         bin_cap_bits < 60)
    ++bin_cap_bits;
  const std::size_t exact_limit =
      std::min({o.max_observation_bits, bin_cap_bits, std::size_t{60}});
  std::unordered_map<SignalId, std::size_t> dense_index;
  for (std::size_t i = 0; i < supports->stable_points().size(); ++i)
    dense_index[supports->stable_points()[i]] = i;

  PreparedSets p;
  for (const auto& probe : universe) p.aliases += probe.aliases.size();
  const double enumerate_s = timed(tracer, parent, "probes", "enumerate", 1, [&] {
    std::map<std::vector<SignalId>, std::size_t> seen;
    for (const auto& set :
         sca::eval::enumerate_probe_sets(universe.size(), o.order)) {
      std::vector<SignalId> obs = sca::eval::union_observation(universe, set);
      if (!seen.emplace(obs, p.dense.size()).second) {
        ++p.aliases;
        continue;
      }
      std::vector<std::size_t> d;
      for (SignalId s : obs) d.push_back(dense_index.at(s));
      const std::size_t bits = obs.size() * (transitions ? 2 : 1);
      p.dense.push_back(std::move(d));
      p.bits.push_back(bits);
      p.compacted.push_back(bits > exact_limit);
      p.direct.push_back(bits <= exact_limit &&
                         bits <= sca::stats::FlatCountTable::kMaxDirectBits);
    }
  });
  m.set("probes.enumerate_s", enumerate_s, "s");
  m.set("probes.sets", static_cast<double>(p.dense.size()), "count");
  return p;
}

void accplan_layer(Tracer& tracer, std::uint64_t parent, const PreparedSets& p,
                   const CampaignOptions& o, Metrics& m) {
  std::vector<sca::eval::accplan::PlanSetInput> inputs;
  for (std::size_t i = 0; i < p.dense.size(); ++i)
    inputs.push_back({&p.dense[i], p.bits[i], p.compacted[i], p.direct[i]});
  sca::eval::accplan::PlanOptions po;
  po.transitions = o.model == sca::eval::ProbeModel::kGlitchTransition;
  sca::eval::accplan::AccumulationPlan plan;
  const double s = timed(tracer, parent, "accplan", "compile", 1, [&] {
    plan = sca::eval::accplan::compile_accumulation_plan(inputs, po);
  });
  const double total = static_cast<double>(std::max<std::size_t>(1, inputs.size()));
  m.set("accplan.compile_s", s, "s");
  m.set("accplan.live_sets", static_cast<double>(plan.live_sets), "count");
  m.set("accplan.hosted_sets", static_cast<double>(plan.hosted_sets), "count");
  m.set("accplan.aliased_sets", static_cast<double>(p.aliases), "count");
  m.set("accplan.hosted_ratio", static_cast<double>(plan.hosted_sets) / total,
        "ratio");
  m.set("accplan.trie_share_ratio",
        plan.trie_expand_ops_unshared
            ? static_cast<double>(plan.trie_expand_ops) /
                  static_cast<double>(plan.trie_expand_ops_unshared)
            : 1.0,
        "ratio");
}

// Tables shaped like the campaign's: up to 64 sets sampled evenly, each
// filled with `keys` uniform observations per group. Totals are scaled to
// the whole set count, i.e. one campaign's finalize / merge work.
void stats_layer(Tracer& tracer, std::uint64_t parent, const PreparedSets& p,
                 std::size_t sims, std::uint64_t seed, bool smoke, Metrics& m) {
  const std::size_t n = p.dense.size();
  const std::size_t sample = std::min<std::size_t>(n, smoke ? 8 : 64);
  const std::size_t keys = std::min<std::size_t>(sims, smoke ? 2048 : 16384);
  const sca::common::CounterPrg prg(seed);
  std::vector<sca::stats::FlatCountTable> tables(sample), other(sample);
  double add_s = 0, gtest_s = 0, merge_s = 0;
  std::size_t added = 0;
  for (std::size_t k = 0; k < sample; ++k) {
    const std::size_t i = k * n / sample;
    const unsigned bits = static_cast<unsigned>(
        p.compacted[i] ? 8 : std::min<std::size_t>(p.bits[i], 60));
    const std::uint64_t mask =
        bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    for (auto* t : {&tables[k], &other[k]}) {
      t->set_bin_limit(std::size_t{1} << 16);
      if (p.direct[i]) t->init_direct(bits);
    }
    std::uint64_t block[64];
    Scope s(tracer, "stats", "add_keys64", parent);
    const double t0 = now_s();
    for (std::size_t j = 0; j < keys / 64; ++j)
      for (int g = 0; g < 2; ++g) {
        for (std::uint32_t l = 0; l < 64; ++l)
          block[l] = prg.word(k, static_cast<std::uint32_t>(2 * j + g), l) & mask;
        tables[k].add_keys64(block, g);
        other[k].add_keys64(block, 1 - g);
        added += 128;
      }
    add_s += now_s() - t0;
  }
  for (std::size_t k = 0; k < sample; ++k) {
    gtest_s += timed(tracer, parent, "stats", "g_test", 1,
                     [&] { (void)tables[k].g_test(); });
    merge_s += timed(tracer, parent, "stats", "merge", 1,
                     [&] { tables[k].merge(other[k]); });
  }
  const double scale = static_cast<double>(n) / std::max<std::size_t>(1, sample);
  m.set("stats.gtest_s", gtest_s * scale, "s", sample);
  m.set("stats.table_merge_s", merge_s * scale, "s", sample);
  m.set("stats.add_keys_per_s", add_s > 0 ? added / add_s : 0.0, "keys/s",
        sample);
}

}  // namespace

void run_layer_pass(Tracer& tracer, const LayerInputs& in,
                    const std::string& out_dir, std::uint64_t seed, bool smoke,
                    Metrics& m, LoopStats& checks) {
  const int reps = smoke ? 1 : 3;
  const double min_s = smoke ? 0.02 : 0.2;

  // gadgets: build the workload's design.
  Netlist design;
  {
    Scope op(tracer, "bench", "layer.gadgets");
    const double s = timed(tracer, op.id(), "gadgets", "build", reps, [&] {
      design = Netlist();
      in.build_design(design);
    });
    m.set("gadgets.build_s", s, "s", reps);
    m.set("gadgets.gates", static_cast<double>(design.combinational_count()),
          "count");
  }

  // netlist: SNL round trip and slice extraction.
  {
    Scope op(tracer, "bench", "layer.netlist");
    std::string snl;
    m.set("netlist.snl_write_s",
          timed(tracer, op.id(), "netlist", "write_snl", reps,
                [&] { snl = sca::netlist::write_snl(design); }),
          "s", reps);
    m.set("netlist.snl_bytes", static_cast<double>(snl.size()), "bytes");
    m.set("netlist.snl_parse_s",
          timed(tracer, op.id(), "netlist", "parse_snl", reps,
                [&] { (void)sca::netlist::parse_snl(snl); }),
          "s", reps);
    sca::netlist::Slice slice;
    m.set("netlist.slice_s",
          timed(tracer, op.id(), "netlist", "extract_slice", reps,
                [&] { slice = sca::netlist::extract_slice(design); }),
          "s", reps);
    m.set("netlist.cut_registers", static_cast<double>(slice.cuts.size()),
          "count");
  }

  // verif + lint: the unroll the linter performs, then the sweep itself.
  {
    Scope op(tracer, "bench", "layer.lint");
    const bool transition =
        in.lint.model == sca::lint::LintModel::kGlitchTransition;
    std::optional<sca::netlist::Slice> slice;
    const Netlist* work = &design;
    std::vector<SignalId> held;
    std::size_t depth = 0;
    try {
      depth = sca::verif::sequential_depth(design);
    } catch (const std::exception&) {
      slice.emplace(sca::netlist::extract_slice(design));
      work = &slice->nl;
      held = slice->held_inputs;
      depth = sca::verif::sequential_depth(*work);
    }
    const std::size_t cycles = depth + 1 + (transition ? 1 : 0);
    m.set("verif.unroll_s",
          timed(tracer, op.id(), "verif", "unroll", reps,
                [&] { (void)sca::verif::unroll(*work, cycles, held); }),
          "s", reps);

    sca::lint::LintReport report;
    const double sweep = timed(tracer, op.id(), "lint", "run_lint", 1,
                               [&] { report = sca::lint::run_lint(design, in.lint); });
    m.set("lint.sweep_s", sweep, "s");
    m.set("lint.probes", static_cast<double>(report.probes_checked), "count");
    m.set("lint.findings", static_cast<double>(report.findings.size()), "count");
    // Flagged share of the probe sets checked (order 2: distinct pairs).
    const std::size_t sets = in.lint.order == 2
                                 ? report.pairs_enumerated - report.pairs_deduped
                                 : report.probes_checked;
    m.set("lint.flag_ratio",
          sets ? static_cast<double>(report.probes_flagged) /
                     static_cast<double>(sets)
               : 0.0,
          "ratio");
    checks.add_check(report.clean() != in.flagged_design);

    double certified = in.certified_lint_s;
    std::size_t certificates = in.certificates;
    if (certified <= 0.0) {
      sca::lint::LintOptions o = in.lint;
      o.certify = true;
      sca::lint::LintReport c;
      certified = timed(tracer, op.id(), "lint", "run_lint_certify", 1,
                        [&] { c = sca::lint::run_lint(design, o); });
      // Counted, not required: pair certificates beyond the exact
      // engine's enumeration window are reported unavailable by design.
      certificates = 0;
      for (const auto& f : c.findings)
        certificates += f.certificate && f.certificate->available;
    }
    m.set("verif.certify_s", certified - sweep, "s");
    m.set("verif.certificates", static_cast<double>(certificates), "count");
  }

  // sim: compile the campaign design's tape and run it at 512 lanes.
  {
    Scope op(tracer, "bench", "layer.sim");
    sca::sim::Tape tape;
    m.set("sim.compile_tape_s",
          timed(tracer, op.id(), "sim", "compile_tape", reps,
                [&] { tape = sca::sim::compile_tape(*in.campaign_nl, {}); }),
          "s", reps);
    m.set("sim.live_gates", static_cast<double>(tape.live_gates), "count");
    m.set("sim.levels", static_cast<double>(tape.levels), "count");
    std::vector<std::uint64_t> slots(std::size_t{tape.slot_count} * 8);
    const sca::common::CounterPrg prg(seed);
    for (std::size_t i = 0; i < slots.size(); ++i)
      slots[i] = prg.word(0, 0, static_cast<std::uint32_t>(i));
    const double runs = rate(tracer, op.id(), "sim", "run_tape", min_s,
                             [&] { sca::sim::run_tape<8>(tape, slots.data()); });
    m.set("sim.gate_evals_per_s",
          runs * static_cast<double>(tape.live_gates) * 512.0, "1/s");
  }

  // common: counter-mode PRG and 64x64 transposes.
  {
    Scope op(tracer, "bench", "layer.common");
    const sca::common::CounterPrg prg(seed);
    std::uint64_t sink = 0, cycle = 0;
    const double prg_calls = rate(tracer, op.id(), "common", "CounterPrg",
                                  min_s, [&] {
      const auto stream = prg.stream(++cycle, 3);
      for (std::uint32_t i = 0; i < 1024; ++i)
        sink ^= sca::common::CounterPrg::word_at(stream, i);
    });
    m.set("common.prg_words_per_s", prg_calls * 1024.0, "1/s");
    std::vector<std::uint64_t> rows(64 * 8);
    for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = prg.word(1, 1, static_cast<std::uint32_t>(i));
    std::uint64_t out[64];
    const double blocks = rate(tracer, op.id(), "common", "transpose",
                               min_s, [&] {
      for (unsigned limb = 0; limb < 8; ++limb) {
        sca::common::transpose_wx64_block(rows.data(), 64, 8, limb, out);
        sink ^= out[limb];
        rows[limb] ^= out[63];
      }
    });
    m.set("common.transpose_blocks_per_s", blocks * 8.0, "1/s");
    g_sink = sink;  // keeps both loops observable to the optimizer
  }

  // probes, accplan, stats: campaign-shaped sets of the workload.
  {
    Scope op(tracer, "bench", "layer.probes");
    const PreparedSets p =
        prepare_sets(tracer, op.id(), *in.campaign_nl, in.campaign, m);
    accplan_layer(tracer, op.id(), p, in.campaign, m);
    stats_layer(tracer, op.id(), p, in.campaign.simulations, seed, smoke, m);
  }

  // checkpoint (and campaign counters when the loop ran no campaign): the
  // E2 job's unstaged in-process run, then the worker's ticket flow
  // replayed in-process — resume + stop_after_stage=1 per stage — with the
  // snapshot loaded and saved from here between tickets.
  double inprocess_s = 0.0;
  {
    Scope op(tracer, "bench", "layer.checkpoint");
    Netlist e2;
    build_e2(e2);
    const std::string snl = sca::netlist::write_snl(e2);
    const JobSpec spec = e2_job(snl, in.e2_job_sims, derive_seed(seed, 3, 0));
    CampaignOptions o = spec.campaign_options(e2);
    CampaignTotals totals;
    const CampaignResult ref = traced_campaign(tracer, op.id(), e2, o, &inprocess_s);
    totals.add(ref, inprocess_s);
    const std::string expected = sca::eval::verdict_json(ref);
    (in.campaign_totals && in.campaign_totals->ops ? *in.campaign_totals
                                                   : totals)
        .report(m);

    std::filesystem::create_directories(out_dir);
    const std::string path =
        out_dir + "/ckpt-" + std::to_string(::getpid()) + ".bin";
    const std::string copy = path + ".copy";
    std::filesystem::remove(path);
    o.stages = 8;
    o.checkpoint_path = path;
    o.stop_after_stage = 1;
    std::vector<double> load_s, save_s, bytes;
    CampaignResult r;
    do {
      o.resume = std::filesystem::exists(path);
      r = traced_campaign(tracer, op.id(), e2, o, nullptr);
      sca::eval::CampaignSnapshot snap;
      load_s.push_back(timed(tracer, op.id(), "checkpoint", "load", 1,
                             [&] { snap = sca::eval::load_checkpoint(path); }));
      save_s.push_back(timed(tracer, op.id(), "checkpoint", "save", 1,
                             [&] { sca::eval::save_checkpoint(copy, snap); }));
      bytes.push_back(static_cast<double>(std::filesystem::file_size(path)));
    } while (r.interrupted);
    checks.add_check(sca::eval::verdict_json(r) == expected);
    m.set("checkpoint.load_s", median(load_s), "s", load_s.size());
    m.set("checkpoint.save_s", median(save_s), "s", save_s.size());
    m.set("checkpoint.bytes", median(bytes), "bytes", bytes.size());
    std::filesystem::remove(path);
    std::filesystem::remove(copy);
  }

  // service: the workload's own round trips, else one miss and a few hits
  // through a daemon forked here (no other thread is alive at this point).
  {
    Scope op(tracer, "bench", "layer.service");
    std::vector<ServiceRecord> own;
    const std::vector<ServiceRecord>* records = in.service_records;
    Json status;
    if (!records) {
      Netlist e2;
      build_e2(e2);
      const std::string snl = sca::netlist::write_snl(e2);
      Daemon daemon(out_dir + "/evald-layers-" + std::to_string(::getpid()));
      sca::service::ServiceClient client(daemon.socket());
      const JobSpec spec = e2_job(snl, in.e2_job_sims, derive_seed(seed, 3, 1));
      own.push_back(service_round_trip(tracer, op.id(), client, spec, true,
                                       false));
      for (int i = 0; i < (smoke ? 4 : 50); ++i)
        own.push_back(service_round_trip(tracer, op.id(), client, spec, false,
                                         false));
      for (const ServiceRecord& r : own) checks.add_check(r.ok);
      status = client.status();
      records = &own;
      // Same-spec in-process time for the per-ticket overhead.
      CampaignOptions o = spec.campaign_options(e2);
      const double t0 = now_s();
      (void)sca::eval::run_fixed_vs_random(e2, o);
      inprocess_s = now_s() - t0;
    } else {
      status = in.service_status;
    }
    report_service(*records, status, in.service_inprocess_s > 0
                                         ? in.service_inprocess_s
                                         : inprocess_s,
                   in.service_refused, m);
  }
}

}  // namespace perfbench
