// Netlist exporters: Graphviz DOT, structural Verilog, and JSON.
//
// DOT regenerates the paper's architecture figures (Fig. 1b/1c/3) from the
// actual built circuits; structural Verilog lets the designs be taken to a
// real HDL flow (e.g. to re-run the original PROLEAD on them); JSON feeds
// external tooling.
#pragma once

#include <string>

#include "src/netlist/ir.hpp"

namespace sca::netlist {

/// Graphviz DOT rendering. Inputs are sources on the left, registers are
/// boxes, outputs are sinks. `max_gates` guards against accidentally dumping
/// a full AES core (0 = no limit).
std::string to_dot(const Netlist& nl, const std::string& graph_name = "netlist",
                   std::size_t max_gates = 0);

/// Structural Verilog-2001 with one `assign`/instance per gate and a single
/// posedge-clocked always block for the registers.
std::string to_verilog(const Netlist& nl, const std::string& module_name);

/// JSON dump (one line): gates, inputs with roles/labels, outputs, names.
std::string to_json(const Netlist& nl);

}  // namespace sca::netlist
