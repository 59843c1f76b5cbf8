#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/check.hpp"
#include "src/common/json.hpp"
#include "src/netlist/celllib.hpp"
#include "src/netlist/cone.hpp"
#include "src/netlist/export.hpp"
#include "src/netlist/ir.hpp"
#include "src/netlist/textio.hpp"

namespace sca::netlist {
namespace {

Netlist make_half_adder() {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  const SignalId b = nl.add_input(InputRole::kControl, "b");
  nl.add_output("sum", nl.xor_(a, b));
  nl.add_output("carry", nl.and_(a, b));
  return nl;
}

TEST(Ir, GateArity) {
  EXPECT_EQ(gate_arity(GateKind::kInput), 0u);
  EXPECT_EQ(gate_arity(GateKind::kNot), 1u);
  EXPECT_EQ(gate_arity(GateKind::kXor), 2u);
  EXPECT_EQ(gate_arity(GateKind::kMux), 3u);
  EXPECT_EQ(gate_arity(GateKind::kReg), 1u);
}

TEST(Ir, BuildAndInspect) {
  Netlist nl = make_half_adder();
  EXPECT_EQ(nl.size(), 4u);
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs().size(), 2u);
  EXPECT_EQ(nl.count(GateKind::kXor), 1u);
  EXPECT_EQ(nl.count(GateKind::kAnd), 1u);
  EXPECT_EQ(nl.combinational_count(), 2u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Ir, RejectsMissingFanin) {
  Netlist nl;
  EXPECT_THROW(nl.add_gate(GateKind::kAnd, kNoSignal, kNoSignal),
               common::Error);
}

TEST(Ir, RejectsExtraFanin) {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  EXPECT_THROW(nl.add_gate(GateKind::kNot, a, a), common::Error);
}

TEST(Ir, RejectsOutOfRangeFanin) {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  EXPECT_THROW(nl.add_gate(GateKind::kNot, a + 100), common::Error);
}

TEST(Ir, RegisterPlaceholderMustBeConnected) {
  Netlist nl;
  const SignalId r = nl.make_reg_placeholder();
  EXPECT_THROW(nl.validate(), common::Error);
  const SignalId inv = nl.not_(r);
  nl.connect_reg(r, inv);  // feedback loop through a register is legal
  EXPECT_NO_THROW(nl.validate());
}

TEST(Ir, ConnectRegTwiceThrows) {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  const SignalId r = nl.make_reg_placeholder();
  nl.connect_reg(r, a);
  EXPECT_THROW(nl.connect_reg(r, a), common::Error);
}

TEST(Ir, ScopedNames) {
  Netlist nl;
  nl.push_scope("sbox");
  nl.push_scope("kron");
  const SignalId a = nl.add_input(InputRole::kControl, "x0");
  nl.pop_scope();
  nl.pop_scope();
  EXPECT_EQ(nl.signal_name(a), "sbox.kron.x0");
  EXPECT_THROW(nl.pop_scope(), common::Error);
}

TEST(Ir, ShareLabelsDriveGroupCounts) {
  Netlist nl;
  for (std::uint32_t s = 0; s < 2; ++s)
    for (std::uint32_t bit = 0; bit < 4; ++bit)
      nl.add_input(InputRole::kShare, "x", ShareLabel{0, s, bit});
  nl.add_input(InputRole::kShare, "y", ShareLabel{1, 0, 0});
  nl.add_input(InputRole::kRandom, "r0");
  nl.add_input(InputRole::kRandom, "r1");
  EXPECT_EQ(nl.secret_group_count(), 2u);
  EXPECT_EQ(nl.share_count(0), 2u);
  EXPECT_EQ(nl.share_count(1), 1u);
  EXPECT_EQ(nl.random_input_count(), 2u);
}

TEST(Ir, TopologicalOrderSourcesFirst) {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  const SignalId x = nl.not_(a);
  const SignalId r = nl.reg(x);
  const SignalId y = nl.xor_(r, a);
  nl.add_output("y", y);
  const auto order = nl.topological_order();
  ASSERT_EQ(order.size(), 4u);
  // a and r are sources; x and y combinational afterwards in id order.
  EXPECT_EQ(order[0], a);
  EXPECT_EQ(order[1], r);
  EXPECT_EQ(order[2], x);
  EXPECT_EQ(order[3], y);
}

// --- cone analysis -------------------------------------------------------------

TEST(Cone, SupportOfCombinationalGate) {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  const SignalId b = nl.add_input(InputRole::kControl, "b");
  const SignalId c = nl.add_input(InputRole::kControl, "c");
  const SignalId ab = nl.and_(a, b);
  const SignalId abc = nl.xor_(ab, c);
  const StableSupport ss(nl);
  EXPECT_EQ(ss.support(ab).count(), 2u);
  EXPECT_EQ(ss.support(abc).count(), 3u);
  EXPECT_TRUE(ss.support(ab).is_subset_of(ss.support(abc)));
}

TEST(Cone, RegistersCutCones) {
  // a -> NOT -> REG -> XOR(b): probe on XOR sees {REG, b}, not a.
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  const SignalId b = nl.add_input(InputRole::kControl, "b");
  const SignalId na = nl.not_(a);
  const SignalId r = nl.reg(na);
  const SignalId x = nl.xor_(r, b);
  const StableSupport ss(nl);
  EXPECT_EQ(ss.support(x).count(), 2u);
  EXPECT_TRUE(ss.support(x).test(ss.stable_index(r)));
  EXPECT_TRUE(ss.support(x).test(ss.stable_index(b)));
  EXPECT_FALSE(ss.support(x).test(ss.stable_index(a)));
}

TEST(Cone, StablePointsAreSingletons) {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  const SignalId r = nl.reg(a);
  const StableSupport ss(nl);
  EXPECT_EQ(ss.support(a).count(), 1u);
  EXPECT_EQ(ss.support(r).count(), 1u);
  EXPECT_TRUE(ss.is_stable(a));
  EXPECT_TRUE(ss.is_stable(r));
}

TEST(Cone, ConstantsHaveEmptySupport) {
  Netlist nl;
  const SignalId c1 = nl.constant(true);
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  const SignalId x = nl.and_(c1, a);
  const StableSupport ss(nl);
  EXPECT_EQ(ss.support(c1).count(), 0u);
  EXPECT_EQ(ss.support(x).count(), 1u);
}

TEST(Cone, CombinationalConeStopsAtRegisters) {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kControl, "a");
  const SignalId n1 = nl.not_(a);
  const SignalId r = nl.reg(n1);
  const SignalId n2 = nl.not_(r);
  const SignalId x = nl.xor_(n2, a);
  const auto cone = combinational_cone(nl, x);
  // Cone of x: {x, n2, r(boundary), a} but not n1.
  EXPECT_NE(std::find(cone.begin(), cone.end(), x), cone.end());
  EXPECT_NE(std::find(cone.begin(), cone.end(), n2), cone.end());
  EXPECT_NE(std::find(cone.begin(), cone.end(), r), cone.end());
  EXPECT_EQ(std::find(cone.begin(), cone.end(), n1), cone.end());
}

// --- cell library / area --------------------------------------------------------

TEST(CellLib, EveryGateKindHasACell) {
  const CellLibrary& lib = CellLibrary::nangate45();
  for (GateKind k : {GateKind::kBuf, GateKind::kNot, GateKind::kAnd,
                     GateKind::kNand, GateKind::kOr, GateKind::kNor,
                     GateKind::kXor, GateKind::kXnor, GateKind::kMux,
                     GateKind::kReg})
    EXPECT_NO_THROW(lib.cell_for(k));
}

TEST(CellLib, GateEquivalentUnit) {
  const CellLibrary& lib = CellLibrary::nangate45();
  EXPECT_DOUBLE_EQ(lib.cell_for(GateKind::kNand).area_um2, lib.nand2_area());
}

TEST(CellLib, AreaReportCounts) {
  Netlist nl = make_half_adder();
  const SignalId r = nl.reg(nl.outputs()[0].signal);
  nl.add_output("sum_reg", r);
  const AreaReport report = map_and_report(nl, CellLibrary::nangate45());
  EXPECT_EQ(report.combinational_cells, 2u);
  EXPECT_EQ(report.sequential_cells, 1u);
  EXPECT_EQ(report.cell_counts.at("XOR2_X1"), 1u);
  EXPECT_EQ(report.cell_counts.at("AND2_X1"), 1u);
  EXPECT_EQ(report.cell_counts.at("DFF_X1"), 1u);
  // 1 XOR (2 GE) + 1 AND (~1.33) + 1 DFF (~5.67): between 8 and 10 GE.
  EXPECT_GT(report.gate_equivalents, 8.0);
  EXPECT_LT(report.gate_equivalents, 10.0);
  EXPECT_FALSE(to_string(report).empty());
}

// --- exporters -------------------------------------------------------------------

TEST(Export, DotContainsNodesAndEdges) {
  const Netlist nl = make_half_adder();
  const std::string dot = to_dot(nl, "half_adder");
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("XOR"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("sum"), std::string::npos);
}

TEST(Export, DotRespectsGuard) {
  const Netlist nl = make_half_adder();
  EXPECT_THROW(to_dot(nl, "g", 2), common::Error);
  EXPECT_NO_THROW(to_dot(nl, "g", 100));
}

TEST(Export, VerilogMentionsAllPieces) {
  Netlist nl = make_half_adder();
  nl.add_output("carry_reg", nl.reg(nl.outputs()[1].signal));
  const std::string v = to_verilog(nl, "half_adder");
  EXPECT_NE(v.find("module half_adder"), std::string::npos);
  EXPECT_NE(v.find("assign"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(Export, JsonListsInputsWithRoles) {
  Netlist nl;
  nl.add_input(InputRole::kShare, "x", ShareLabel{0, 1, 3});
  nl.add_input(InputRole::kRandom, "r");
  const common::Json j = common::Json::parse(to_json(nl));
  const auto& inputs = j.at("inputs").items();
  ASSERT_EQ(inputs.size(), 2u);
  EXPECT_EQ(inputs[0].at("role").as_string(), "share");
  EXPECT_EQ(inputs[0].at("secret").as_int(), 0);
  EXPECT_EQ(inputs[0].at("share").as_int(), 1);
  EXPECT_EQ(inputs[0].at("bit").as_int(), 3);
  EXPECT_EQ(inputs[1].at("role").as_string(), "random");
  EXPECT_FALSE(inputs[1].has("bit"));
}

// --- SNL text round trip ----------------------------------------------------------

TEST(TextIo, RoundTripPreservesStructure) {
  Netlist nl;
  const SignalId a = nl.add_input(InputRole::kShare, "a", ShareLabel{0, 0, 0});
  const SignalId b = nl.add_input(InputRole::kShare, "b", ShareLabel{0, 1, 0});
  const SignalId r = nl.add_input(InputRole::kRandom, "r");
  const SignalId x = nl.xor_(nl.and_(a, b), r);
  const SignalId q = nl.reg(x);
  nl.name_signal(x, "cross");
  nl.add_output("q", q);

  const std::string text = write_snl(nl);
  const Netlist back = parse_snl(text);

  EXPECT_EQ(back.size(), nl.size());
  EXPECT_EQ(back.inputs().size(), nl.inputs().size());
  EXPECT_EQ(back.outputs().size(), 1u);
  EXPECT_EQ(back.count(GateKind::kAnd), 1u);
  EXPECT_EQ(back.count(GateKind::kXor), 1u);
  EXPECT_EQ(back.count(GateKind::kReg), 1u);
  EXPECT_EQ(back.inputs()[0].role, InputRole::kShare);
  EXPECT_EQ(back.inputs()[2].role, InputRole::kRandom);
  EXPECT_EQ(back.inputs()[1].share.share, 1u);
  // Round-trip again: text must be stable.
  EXPECT_EQ(write_snl(back), text);
}

TEST(TextIo, RegisterFeedbackParses) {
  const std::string text =
      "input a control\n"
      "reg q n_next\n"
      "gate n_next XOR q a\n"
      "output q q\n";
  const Netlist nl = parse_snl(text);
  EXPECT_EQ(nl.count(GateKind::kReg), 1u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(TextIo, ParserRejectsGarbage) {
  EXPECT_THROW(parse_snl("frobnicate x y\n"), common::Error);
  EXPECT_THROW(parse_snl("gate g XOR a b\n"), common::Error);  // unknown operand
  EXPECT_THROW(parse_snl("input a control\ninput a random\n"), common::Error);
  EXPECT_THROW(parse_snl("const c 2\n"), common::Error);
  EXPECT_THROW(parse_snl("gate g NOT\n"), common::Error);  // missing operand
}

TEST(TextIo, RoundTripPreservesRandomnessAnnotations) {
  Netlist nl;
  std::vector<SignalId> r(8), s0(8), s1(8), out(8);
  for (std::size_t i = 0; i < 8; ++i)
    r[i] = nl.add_input(InputRole::kRandom, "r" + std::to_string(i));
  for (std::size_t i = 0; i < 8; ++i)
    s0[i] = nl.add_input(InputRole::kShare, "a" + std::to_string(i),
                         ShareLabel{0, 0, static_cast<std::uint32_t>(i)});
  for (std::size_t i = 0; i < 8; ++i)
    s1[i] = nl.add_input(InputRole::kShare, "b" + std::to_string(i),
                         ShareLabel{0, 1, static_cast<std::uint32_t>(i)});
  for (std::size_t i = 0; i < 8; ++i) {
    out[i] = nl.xor_(s0[i], r[i]);
    nl.add_output("y" + std::to_string(i), out[i]);
  }
  nl.add_nonzero_bus(r);
  nl.add_nonzero_sharing({s0, s1});
  // The gadget wiring claim is the linter's to verify by simulation; the
  // SNL layer only round-trips the annotation structurally.
  nl.add_gf_gadget({GfGadgetKind::kMul, out, s0, r});
  nl.add_gf_gadget({GfGadgetKind::kInv, out, s0, {}});

  const std::string text = write_snl(nl);
  const Netlist back = parse_snl(text);
  EXPECT_EQ(back.nonzero_buses(), nl.nonzero_buses());
  EXPECT_EQ(back.nonzero_sharings(), nl.nonzero_sharings());
  ASSERT_EQ(back.gf_gadgets().size(), 2u);
  EXPECT_EQ(back.gf_gadgets()[0].kind, GfGadgetKind::kMul);
  EXPECT_EQ(back.gf_gadgets()[0].a, s0);
  EXPECT_EQ(back.gf_gadgets()[0].b, r);
  EXPECT_EQ(back.gf_gadgets()[1].kind, GfGadgetKind::kInv);
  EXPECT_TRUE(back.gf_gadgets()[1].b.empty());
  EXPECT_TRUE(back.in_nonzero_bus(r[3]));
  EXPECT_FALSE(back.in_nonzero_bus(s0[0]));
  // Round-trip again: text must be stable.
  EXPECT_EQ(write_snl(back), text);
}

TEST(TextIo, ParserRejectsMalformedAnnotations) {
  std::string head;
  for (int i = 0; i < 8; ++i)
    head += "input r" + std::to_string(i) + " random\n";
  // nonzerobus needs exactly 8 signals.
  EXPECT_THROW(parse_snl(head + "nonzerobus r0 r1\n"), common::Error);
  // nonzerosharing needs 8 signals per declared share.
  EXPECT_THROW(parse_snl(head + "nonzerosharing 1 r0 r1\n"), common::Error);
  // gfgadget needs a known kind.
  const std::string bus = " r0 r1 r2 r3 r4 r5 r6 r7";
  EXPECT_THROW(parse_snl(head + "gfgadget FROB" + bus + bus + bus + "\n"),
               common::Error);
  // MUL needs three buses, INV only two.
  EXPECT_THROW(parse_snl(head + "gfgadget MUL" + bus + bus + "\n"),
               common::Error);
  EXPECT_NO_THROW(parse_snl(head + "gfgadget INV" + bus + bus + "\n"));
}

TEST(TextIo, CommentsAndBlankLinesIgnored)
{
  const std::string text =
      "# a comment\n"
      "\n"
      "input a control  # trailing comment\n"
      "gate b NOT a\n"
      "output y b\n";
  const Netlist nl = parse_snl(text);
  EXPECT_EQ(nl.size(), 2u);
}

}  // namespace
}  // namespace sca::netlist
