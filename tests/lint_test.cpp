// Golden verdicts and exact-verifier agreement for the static leakage
// linter (src/lint). The ground truth is the paper itself: Eq. (6) must be
// flagged (R1 at G7), Eq. (9) must pass the glitch rules and fail the
// transition rules, and exactly the four r7 = r_i (i = 1..4) plans survive
// the transition model — all cross-checked against verif::exact and
// eval::search over the full small-plan space.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/report.hpp"
#include "src/core/search.hpp"
#include "src/gadgets/bus.hpp"
#include "src/gadgets/conversions.hpp"
#include "src/gadgets/kronecker.hpp"
#include "src/gadgets/randomness_plan.hpp"
#include "src/lint/linter.hpp"
#include "src/verif/exact.hpp"
#include "tests/cert_replay.hpp"

namespace sca {
namespace {

using gadgets::RandomnessPlan;
using lint::LintModel;
using lint::LintOptions;
using lint::LintReport;
using lint::LintRule;
using netlist::InputRole;
using netlist::Netlist;

Netlist build_kron1(const RandomnessPlan& plan) {
  Netlist nl;
  const std::vector<gadgets::Bus> shares = {
      gadgets::make_input_bus(nl, 8, InputRole::kShare, "b0_", 0, 0),
      gadgets::make_input_bus(nl, 8, InputRole::kShare, "b1_", 0, 1)};
  gadgets::build_kronecker(nl, shares, plan);
  return nl;
}

LintReport lint_kron1(const RandomnessPlan& plan, LintModel model) {
  const Netlist nl = build_kron1(plan);
  LintOptions options;
  options.model = model;
  return lint::run_lint(nl, options);
}

// --- paper golden verdicts, glitch model ---------------------------------------

TEST(Lint, FullFreshIsCleanUnderBothModels) {
  EXPECT_TRUE(
      lint_kron1(RandomnessPlan::kron1_full_fresh(), LintModel::kGlitch)
          .clean());
  EXPECT_TRUE(lint_kron1(RandomnessPlan::kron1_full_fresh(),
                         LintModel::kGlitchTransition)
                  .clean());
}

TEST(Lint, Eq6FlaggedAsFreshReuseInsideG7) {
  // The CHES 2018 optimization, Eq. (6): r1 = r3 makes the two first-layer
  // DOM gates' glitch-extended cones meet inside G7 — the linter must point
  // at exactly that structure.
  const LintReport report =
      lint_kron1(RandomnessPlan::kron1_demeyer_eq6(), LintModel::kGlitch);
  ASSERT_FALSE(report.clean());
  bool r1_at_g7 = false;
  for (const lint::LintFinding& f : report.findings) {
    EXPECT_NE(f.probe_name.find("G7"), std::string::npos)
        << "finding outside G7: " << f.message;
    // Certification is opt-in: without LintOptions::certify there is none.
    EXPECT_FALSE(f.certificate.has_value());
    if (f.rule == LintRule::kR1FreshReuse &&
        f.probe_name.find("G7") != std::string::npos &&
        !f.shared_fresh.empty())
      r1_at_g7 = true;
  }
  EXPECT_TRUE(r1_at_g7) << to_string(report);
}

TEST(Lint, SingleReuseR1R3Flagged) {
  const LintReport report = lint_kron1(
      RandomnessPlan::kron1_single_reuse_r1r3(), LintModel::kGlitch);
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.findings.front().rule, LintRule::kR1FreshReuse);
}

TEST(Lint, R5EqualsR6Flagged) {
  // Section IV's counterexample: sharing the two layer-2 masks leaks even
  // under the glitch-only model.
  EXPECT_FALSE(lint_kron1(RandomnessPlan::kron1_r5_equals_r6(),
                          LintModel::kGlitch)
                   .clean());
}

TEST(Lint, Eq9CleanUnderGlitchFlaggedUnderTransition) {
  // The paper's repaired plan, Eq. (9): secure in the glitch model, broken
  // once register transitions are observed (Section IV). The transition
  // finding must be an R4 (the glitch-only subtuple is clean).
  EXPECT_TRUE(lint_kron1(RandomnessPlan::kron1_proposed_eq9(),
                         LintModel::kGlitch)
                  .clean());
  const LintReport report = lint_kron1(RandomnessPlan::kron1_proposed_eq9(),
                                       LintModel::kGlitchTransition);
  ASSERT_FALSE(report.clean());
  for (const lint::LintFinding& f : report.findings)
    EXPECT_EQ(f.rule, LintRule::kR4TransitionHazard) << f.message;
}

TEST(Lint, TransitionModelAcceptsExactlyTheFourPaperSolutions) {
  // Section IV: of the six r7 = r_i reuse candidates, exactly r7 = r1..r4
  // survive transitions (r5/r6 feed the same register chain as r7).
  for (unsigned i = 1; i <= 6; ++i) {
    std::vector<gadgets::MaskSlotExpr> slots;
    for (unsigned k = 0; k < 6; ++k)
      slots.push_back(gadgets::MaskSlotExpr{std::uint64_t{1} << k, false});
    slots.push_back(gadgets::MaskSlotExpr{std::uint64_t{1} << (i - 1), false});
    const RandomnessPlan plan("r7-is-r" + std::to_string(i), 6,
                              std::move(slots));
    const LintReport report = lint_kron1(plan, LintModel::kGlitchTransition);
    EXPECT_EQ(report.clean(), i <= 4)
        << "r7=r" << i << "\n"
        << to_string(report);
  }
}

// --- counterexample certificates -----------------------------------------------

using testutil::certificate_problems;

// --- agreement with the exact verifier over the small-plan space ----------------

// The exact glitch-model verdict for every single-bit slot partition with
// <= 4 fresh bits — the expensive half of the agreement and pre-filter
// tests, computed once.
const eval::SearchResult& exact_partition_search() {
  static const eval::SearchResult result = [] {
    eval::SearchOptions options;
    options.model = eval::ProbeModel::kGlitch;
    return eval::search_all_partitions(options, /*max_fresh=*/4);
  }();
  return result;
}

// All single-bit slot partitions with <= 4 fresh bits (715 of Bell(7) = 877
// plans): the linter must agree with verif::exact *exactly* — no false
// negatives (soundness) and no false positives — every finding across the
// sweep must carry a replay-validated counterexample certificate, and
// therefore the lint-prefiltered search must return the identical
// secure-plan set while sending fewer candidates to the exact stage. One
// test, because the exact sweep is the expensive part and ctest isolates
// test processes.
TEST(Lint, AgreesWithExactVerifierAndPrefilterKeepsSecureSet) {
  const eval::SearchResult& exact = exact_partition_search();
  ASSERT_EQ(exact.evaluations.size(), 715u);

  // Per plan: lint with certification, then replay every certificate
  // (gtest-free on the workers; assertions run below on the main thread).
  std::vector<int> lint_clean(exact.evaluations.size(), 0);
  std::vector<std::size_t> certificates(exact.evaluations.size(), 0);
  std::vector<std::vector<std::string>> problems(exact.evaluations.size());
  common::parallel_for(
      exact.evaluations.size(), /*threads=*/0, [&](std::size_t i) {
        const Netlist nl = build_kron1(exact.evaluations[i].plan);
        LintOptions options;
        options.certify = true;
        options.threads = 1;  // already parallel over plans
        const LintReport report = lint::run_lint(nl, options);
        lint_clean[i] = report.clean();
        for (const lint::LintFinding& f : report.findings) {
          ++certificates[i];
          for (std::string& p :
               certificate_problems(nl, f, verif::ExactOptions{}))
            problems[i].push_back(std::move(p));
        }
      });
  std::size_t certified = 0;
  for (std::size_t i = 0; i < exact.evaluations.size(); ++i) {
    const auto& e = exact.evaluations[i];
    ASSERT_TRUE(e.exact);
    EXPECT_EQ(static_cast<bool>(lint_clean[i]), e.secure)
        << e.plan.describe();
    // Clean plans have no findings, hence no certificates; flagged plans
    // carry only replay-validated ones.
    for (const std::string& p : problems[i])
      ADD_FAILURE() << e.plan.describe() << ": " << p;
    certified += certificates[i];
  }
  EXPECT_GT(certified, 0u);

  // Pre-filter identity: exact agreement above already implies it, but the
  // search plumbing (counters, skip path) deserves its own end-to-end pass.
  eval::SearchOptions options;
  options.model = eval::ProbeModel::kGlitch;
  options.lint_prefilter = true;
  const eval::SearchResult filtered =
      eval::search_all_partitions(options, /*max_fresh=*/4);

  const auto secure_names = [](const eval::SearchResult& r) {
    std::set<std::string> names;
    for (const eval::PlanEvaluation* e : r.secure_plans())
      names.insert(e->plan.describe());
    return names;
  };
  EXPECT_EQ(secure_names(exact), secure_names(filtered));
  EXPECT_EQ(exact.lint_rejected, 0u);
  EXPECT_GT(filtered.lint_rejected, 0u);
  EXPECT_LT(filtered.expensive_evaluations, exact.expensive_evaluations);
  EXPECT_EQ(filtered.lint_rejected + filtered.expensive_evaluations,
            filtered.evaluations.size());
}

TEST(Lint, PrefilteredR7SearchMatchesPaperUnderTransitions) {
  // The r7-reuse search under the transition model with the pre-filter on:
  // flagged candidates (r7 = r5, r7 = r6) never reach the sampler, and the
  // secure set is the paper's four solutions plus the full-fresh baseline.
  eval::SearchOptions options;
  options.model = eval::ProbeModel::kGlitchTransition;
  options.lint_prefilter = true;
  options.simulations = 20'000;
  const eval::SearchResult result = eval::search_r7_reuse(options);
  ASSERT_EQ(result.evaluations.size(), 7u);
  EXPECT_EQ(result.lint_rejected, 2u);
  std::set<std::string> secure;
  for (const eval::PlanEvaluation* e : result.secure_plans())
    secure.insert(e->plan.name());
  const std::set<std::string> expected = {
      "kron1/full-fresh-7", "kron1/search-r7-is-r1", "kron1/search-r7-is-r2",
      "kron1/search-r7-is-r3", "kron1/search-r7-is-r4"};
  EXPECT_EQ(secure, expected);
}

TEST(Lint, TransitionFindingsGetTransitionModelCertificates) {
  // An R4 hazard is invisible to a glitch-only enumeration, so its
  // certificate must come from the transition-extended engine. Minimal
  // Section IV shape (full Eq. (9) needs a 2^32 enumeration — too slow for
  // tier 1): both shares are masked with the *same* fresh bit but at
  // register depths 1 and 2, so any single cycle shows two independently
  // masked values while consecutive cycles expose x0 ^ r and x1 ^ r of the
  // same r instance.
  Netlist nl;
  const netlist::SignalId x0 =
      nl.add_input(InputRole::kShare, "x0", netlist::ShareLabel{0, 0, 0});
  const netlist::SignalId x1 =
      nl.add_input(InputRole::kShare, "x1", netlist::ShareLabel{0, 1, 0});
  const netlist::SignalId r = nl.add_input(InputRole::kRandom, "r");
  const netlist::SignalId a = nl.reg(nl.xor_(x0, r));
  nl.name_signal(a, "a_reg");
  const netlist::SignalId b = nl.reg(nl.reg(nl.xor_(x1, r)));
  nl.name_signal(b, "b_reg");
  const netlist::SignalId q = nl.and_(a, b);
  nl.name_signal(q, "q");
  nl.add_output("q", q);
  nl.validate();

  ASSERT_TRUE(lint::run_lint(nl).clean());  // glitch model: two fresh masks
  LintOptions options;
  options.model = LintModel::kGlitchTransition;
  options.certify = true;
  const LintReport report = lint::run_lint(nl, options);
  ASSERT_FALSE(report.clean());
  verif::ExactOptions exact_options;
  exact_options.transitions = true;
  std::size_t r4 = 0;
  for (const lint::LintFinding& f : report.findings) {
    if (f.rule == LintRule::kR4TransitionHazard) ++r4;
    for (const std::string& problem :
         certificate_problems(nl, f, exact_options))
      ADD_FAILURE() << problem;
  }
  EXPECT_GT(r4, 0u) << to_string(report);
}

// --- constrained randomness: nonzero-bus fixtures -------------------------------

// A share XOR-padded with one bit of a GF(256)* mask byte: the pad is
// biased, so the lattice must refuse the OTP cut and flag R5. Both shares
// are registered so they enter the sharing at the same cycle (re-drawn
// share semantics put differently-delayed shares in different instances).
Netlist biased_pad_fixture(bool annotate) {
  Netlist nl;
  const netlist::SignalId x0 =
      nl.add_input(InputRole::kShare, "x0", netlist::ShareLabel{0, 0, 0});
  const netlist::SignalId x1 =
      nl.add_input(InputRole::kShare, "x1", netlist::ShareLabel{0, 1, 0});
  gadgets::Bus r = gadgets::make_input_bus(nl, 8, InputRole::kRandom, "r_");
  if (annotate) nl.add_nonzero_bus(r);
  const netlist::SignalId a = nl.reg(nl.xor_(x0, r[0]));
  nl.name_signal(a, "a_reg");
  const netlist::SignalId x1d = nl.reg(x1);
  nl.name_signal(x1d, "x1_reg");
  const netlist::SignalId b = nl.reg(nl.xor_(a, x1d));
  nl.name_signal(b, "b_out");
  nl.add_output("q", b);
  nl.validate();
  return nl;
}

TEST(LintConstrained, BiasedXorPadFlaggedR5WithReplayingCertificates) {
  const Netlist nl = biased_pad_fixture(/*annotate=*/true);
  LintOptions options;
  options.certify = true;
  const LintReport report = lint::run_lint(nl, options);
  ASSERT_FALSE(report.clean());
  for (const lint::LintFinding& f : report.findings) {
    EXPECT_EQ(f.rule, LintRule::kR5MultiplicativeBlinding) << f.message;
    // The hazard witness is the annotated mask bit, present even though
    // only one residual element touches it (bias, not reuse).
    ASSERT_FALSE(f.shared_fresh.empty());
    EXPECT_NE(f.shared_fresh.front().find("r_0"), std::string::npos);
    // The certificate replays under the *constrained* distribution.
    for (const std::string& problem :
         certificate_problems(nl, f, verif::ExactOptions{}))
      ADD_FAILURE() << problem;
  }
  // Agreement both ways: the exact verifier leaks under GF(256)* draws and
  // is secure when the same bus is treated as unconstrained-uniform — the
  // flag comes from the constraint, not from the wiring.
  verif::ExactOptions honor;
  EXPECT_TRUE(verif::verify_first_order_glitch(nl, honor).any_leak);
  verif::ExactOptions unconstrained;
  unconstrained.honor_nonzero_buses = false;
  EXPECT_FALSE(verif::verify_first_order_glitch(nl, unconstrained).any_leak);
}

TEST(LintConstrained, UnannotatedPadIsAPlainOneTimePad) {
  // Identical wiring, no annotation: a full-entropy pad, clean for both the
  // lattice and the exact verifier.
  const Netlist nl = biased_pad_fixture(/*annotate=*/false);
  EXPECT_TRUE(lint::run_lint(nl).clean());
  EXPECT_FALSE(verif::verify_first_order_glitch(nl).any_leak);
}

Netlist b2m_fixture(bool annotate_r, bool operand_nonzero) {
  Netlist nl;
  gadgets::Bus b0 =
      gadgets::make_input_bus(nl, 8, InputRole::kShare, "b0_", 0, 0);
  gadgets::Bus b1 =
      gadgets::make_input_bus(nl, 8, InputRole::kShare, "b1_", 0, 1);
  gadgets::Bus r = gadgets::make_input_bus(nl, 8, InputRole::kRandom, "r_");
  if (annotate_r) nl.add_nonzero_bus(r);
  const gadgets::B2MResult res =
      gadgets::build_b2m(nl, b0, b1, r, "b2m", operand_nonzero);
  for (std::size_t i = 0; i < 8; ++i) {
    nl.add_output("p0_" + std::to_string(i), res.p0[i]);
    nl.add_output("p1_" + std::to_string(i), res.p1[i]);
  }
  nl.validate();
  return nl;
}

TEST(LintConstrained, B2MWithZeroCapableOperandFlagsTheExposedProducts) {
  // First-order B2M over a zero-capable Boolean sharing: P1 = B1 * R leaks
  // whether B1 = 0 even under constrained R. The linter localizes R5 to the
  // p1 products and certifies under the constrained distribution; the exact
  // verifier agrees.
  const Netlist nl = b2m_fixture(/*annotate_r=*/true, /*operand_nonzero=*/false);
  LintOptions options;
  options.certify = true;
  const LintReport report = lint::run_lint(nl, options);
  ASSERT_FALSE(report.clean());
  for (const lint::LintFinding& f : report.findings) {
    EXPECT_EQ(f.rule, LintRule::kR5MultiplicativeBlinding) << f.message;
    EXPECT_NE(f.probe_name.find("b2m.p1"), std::string::npos) << f.message;
    for (const std::string& problem :
         certificate_problems(nl, f, verif::ExactOptions{}))
      ADD_FAILURE() << problem;
  }
  EXPECT_TRUE(verif::verify_first_order_glitch(nl).any_leak);
}

TEST(LintConstrained, B2MWithNonzeroSharingContractIsClean) {
  // With the operand declared a nonzero sharing (the documented X != 0
  // contract of the multiplicative conversion), the product-family rule
  // clears the whole gadget. The contract is an upstream proof obligation —
  // the exact verifier cannot honor it on this standalone fixture, so the
  // assertion is lint-only: multiplicative-OTP clean pass.
  const Netlist nl = b2m_fixture(/*annotate_r=*/true, /*operand_nonzero=*/true);
  EXPECT_TRUE(lint::run_lint(nl).clean());
}

TEST(LintConstrained, UnannotatedMaskGetsNoMultiplicativeCredit) {
  // Without the nonzero-bus annotation the mask byte is plain uniform —
  // GF(256) multiplication by a possibly-zero byte blinds nothing, and the
  // findings classify as R1 (reused fresh bits), not R5.
  const Netlist nl =
      b2m_fixture(/*annotate_r=*/false, /*operand_nonzero=*/false);
  const LintReport report = lint::run_lint(nl);
  ASSERT_FALSE(report.clean());
  for (const lint::LintFinding& f : report.findings)
    EXPECT_EQ(f.rule, LintRule::kR1FreshReuse) << f.message;
}

// --- report plumbing ------------------------------------------------------------

TEST(Lint, JsonRenderingIsWellFormedAndCarriesFindings) {
  const LintReport report =
      lint_kron1(RandomnessPlan::kron1_demeyer_eq6(), LintModel::kGlitch);
  const std::string json = eval::to_json(report).dump();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"backend\":\"lint\""), std::string::npos);
  EXPECT_NE(json.find("\"model\":\"glitch\""), std::string::npos);
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos);
  EXPECT_NE(json.find("R1-fresh-reuse"), std::string::npos);
  EXPECT_NE(json.find("G7"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // one line
}

TEST(Lint, RejectsRegisterFeedbackLikeTheExactVerifier) {
  Netlist nl;
  const netlist::SignalId state = nl.make_reg_placeholder();
  const netlist::SignalId inv = nl.not_(state);
  nl.connect_reg(state, inv);
  nl.add_output("q", state);
  EXPECT_THROW(lint::run_lint(nl), common::Error);
}

}  // namespace
}  // namespace sca
