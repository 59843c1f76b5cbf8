#include <gtest/gtest.h>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/netlist/ir.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/trace.hpp"

namespace sca::sim {
namespace {

using netlist::GateKind;
using netlist::InputRole;
using netlist::Netlist;
using netlist::SignalId;

TEST(Simulator, AllBooleanGatesTruthTables) {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  const SignalId b = nl.add_input(InputRole::kControl, "b");
  const SignalId g_and = nl.and_(a, b);
  const SignalId g_nand = nl.nand_(a, b);
  const SignalId g_or = nl.or_(a, b);
  const SignalId g_nor = nl.nor_(a, b);
  const SignalId g_xor = nl.xor_(a, b);
  const SignalId g_xnor = nl.xnor_(a, b);
  const SignalId g_not = nl.not_(a);
  const SignalId g_buf = nl.buf(b);

  Simulator simulator(nl);
  // Lanes 0..3 encode (a,b) = (0,0),(1,0),(0,1),(1,1).
  simulator.set_input(a, 0b1010);
  simulator.set_input(b, 0b1100);
  simulator.settle();

  EXPECT_EQ(simulator.value(g_and) & 0xF, 0b1000u);
  EXPECT_EQ(simulator.value(g_nand) & 0xF, 0b0111u);
  EXPECT_EQ(simulator.value(g_or) & 0xF, 0b1110u);
  EXPECT_EQ(simulator.value(g_nor) & 0xF, 0b0001u);
  EXPECT_EQ(simulator.value(g_xor) & 0xF, 0b0110u);
  EXPECT_EQ(simulator.value(g_xnor) & 0xF, 0b1001u);
  EXPECT_EQ(simulator.value(g_not) & 0xF, 0b0101u);
  EXPECT_EQ(simulator.value(g_buf) & 0xF, 0b1100u);
}

TEST(Simulator, MuxSelectsPerLane) {
  Netlist nl;
  const SignalId sel = nl.add_input(InputRole::kControl, "sel");
  const SignalId a0 = nl.add_input(InputRole::kControl, "a0");
  const SignalId a1 = nl.add_input(InputRole::kControl, "a1");
  const SignalId m = nl.mux(sel, a0, a1);
  Simulator simulator(nl);
  simulator.set_input(sel, 0b01);
  simulator.set_input(a0, 0b10);
  simulator.set_input(a1, 0b01);
  simulator.settle();
  // Lane 0: sel=1 -> a1 bit0 = 1. Lane 1: sel=0 -> a0 bit1 = 1.
  EXPECT_EQ(simulator.value(m) & 0b11, 0b11u);
}

TEST(Simulator, ConstantsSurviveReset) {
  Netlist nl;
  const SignalId c1 = nl.constant(true);
  const SignalId c0 = nl.constant(false);
  Simulator simulator(nl);
  simulator.reset();
  EXPECT_EQ(simulator.value(c1), ~std::uint64_t{0});
  EXPECT_EQ(simulator.value(c0), 0u);
}

TEST(Simulator, RegisterDelaysByOneCycle) {
  Netlist nl;
  const SignalId d = nl.add_input(InputRole::kControl, "d");
  const SignalId q = nl.reg(d);
  const SignalId q2 = nl.reg(q);
  Simulator simulator(nl);

  simulator.set_input(d, 0xDEADull);
  simulator.settle();
  EXPECT_EQ(simulator.value(q), 0u);  // still previous state
  simulator.clock();
  EXPECT_EQ(simulator.value(q), 0xDEADull);
  EXPECT_EQ(simulator.value(q2), 0u);
  simulator.set_input(d, 0ull);
  simulator.step();
  EXPECT_EQ(simulator.value(q), 0u);
  EXPECT_EQ(simulator.value(q2), 0xDEADull);
}

TEST(Simulator, RegisterFeedbackToggles) {
  // q <= NOT q: classic toggle flop.
  Netlist nl;
  const SignalId q = nl.make_reg_placeholder();
  const SignalId nq = nl.not_(q);
  nl.connect_reg(q, nq);
  Simulator simulator(nl);
  simulator.settle();
  EXPECT_EQ(simulator.value(q), 0u);
  simulator.clock();
  simulator.settle();
  EXPECT_EQ(simulator.value(q), ~std::uint64_t{0});
  simulator.clock();
  simulator.settle();
  EXPECT_EQ(simulator.value(q), 0u);
}

TEST(Simulator, SetInputRejectsNonInput) {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  const SignalId n = nl.not_(a);
  Simulator simulator(nl);
  EXPECT_THROW(simulator.set_input(n, 1), common::Error);
}

TEST(Simulator, LanesAreIndependent) {
  // Random 3-gate circuit evaluated 64 lanes at once must agree with
  // per-lane scalar evaluation.
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  const SignalId b = nl.add_input(InputRole::kControl, "b");
  const SignalId c = nl.add_input(InputRole::kControl, "c");
  const SignalId t1 = nl.xor_(a, b);
  const SignalId t2 = nl.and_(t1, c);
  const SignalId out = nl.or_(t2, a);

  common::Xoshiro256 rng(42);
  Simulator simulator(nl);
  for (int rounds = 0; rounds < 10; ++rounds) {
    const std::uint64_t va = rng.next(), vb = rng.next(), vc = rng.next();
    simulator.set_input(a, va);
    simulator.set_input(b, vb);
    simulator.set_input(c, vc);
    simulator.settle();
    for (unsigned lane = 0; lane < 64; ++lane) {
      const bool ea = (va >> lane) & 1, eb = (vb >> lane) & 1, ec = (vc >> lane) & 1;
      const bool expect = ((ea ^ eb) && ec) || ea;
      EXPECT_EQ(simulator.value_in_lane(out, lane), expect);
    }
  }
}

TEST(Simulator, PipelineLatencyMatchesRegisterDepth) {
  // 3-deep pipeline of buffers: value appears at the output after 3 clocks.
  Netlist nl;
  const SignalId in = nl.add_input(InputRole::kControl, "in");
  SignalId s = in;
  for (int i = 0; i < 3; ++i) s = nl.reg(nl.buf(s));
  Simulator simulator(nl);

  std::vector<std::uint64_t> sent;
  common::Xoshiro256 rng(3);
  for (int cycle = 0; cycle < 10; ++cycle) {
    const std::uint64_t v = rng.next();
    sent.push_back(v);
    simulator.set_input(in, v);
    simulator.settle();
    if (cycle >= 3) {
      EXPECT_EQ(simulator.value(s), sent[cycle - 3]);
    }
    simulator.clock();
  }
}


TEST(VcdTrace, RendersChanges) {
  netlist::Netlist nl;
  const netlist::SignalId d = nl.add_input(netlist::InputRole::kControl, "d");
  const netlist::SignalId q = nl.reg(d);
  nl.name_signal(q, "q");
  Simulator simulator(nl);
  VcdTrace trace(simulator, {d, q});

  simulator.set_input_all_lanes(d, true);
  simulator.settle();
  trace.sample(0);
  simulator.clock();
  simulator.set_input_all_lanes(d, false);
  simulator.settle();
  trace.sample(1);
  simulator.clock();
  simulator.settle();
  trace.sample(2);

  EXPECT_EQ(trace.sample_count(), 3u);
  const std::string vcd = trace.render("tb");
  EXPECT_NE(vcd.find("$var wire 1"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module tb"), std::string::npos);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
  EXPECT_NE(vcd.find("#1"), std::string::npos);
  // q toggles 0 -> 1 -> 0 across the three samples.
  EXPECT_NE(vcd.find("q $end"), std::string::npos);
}

TEST(VcdTrace, DefaultsToNamedSignals) {
  netlist::Netlist nl;
  const netlist::SignalId a = nl.add_input(netlist::InputRole::kControl, "a");
  nl.not_(a);                      // unnamed
  nl.name_signal(nl.not_(a), "nb");
  Simulator simulator(nl);
  VcdTrace trace(simulator, {});
  simulator.settle();
  trace.sample(0);
  const std::string vcd = trace.render();
  EXPECT_NE(vcd.find(" a "), std::string::npos);
  EXPECT_NE(vcd.find(" nb "), std::string::npos);
}

TEST(VcdTrace, RejectsNonMonotonicTime) {
  netlist::Netlist nl;
  nl.add_input(netlist::InputRole::kControl, "a");
  Simulator simulator(nl);
  VcdTrace trace(simulator, {});
  simulator.settle();
  trace.sample(5);
  EXPECT_THROW(trace.sample(5), common::Error);
}

}  // namespace
}  // namespace sca::sim
