// voq_switch.hpp — input-queued crossbar with Virtual Output Queues and
// iSLIP-style arbitration.
//
// The output-queued `Crossbar` needs fabric speedup to avoid head-of-line
// blocking; the classic alternative keeps ONE queue per (input, output)
// pair — Virtual Output Queues — and matches inputs to outputs each cell
// time with a round-robin request/grant/accept sweep (iSLIP, one
// iteration per cycle here).  No speedup required: each input sends at
// most one frame and each output receives at most one frame per cell
// time, and the rotating pointers make the matching fair under
// persistent contention.
//
// Included as the fabric-side ablation partner: `tests/fabric_test.cpp`
// and the switch demo contrast HOL-blocking loss (speedup-1 output
// queued) against VOQ's full throughput on the same traffic.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "fabric/crossbar.hpp"  // FabricFrame

namespace ss::fabric {

class VoqSwitch {
 public:
  VoqSwitch(unsigned inputs, unsigned outputs,
            std::size_t voq_depth = 256);

  /// Enqueue into VOQ[input][frame.output_port]; false + counter if full.
  bool offer(std::uint32_t input_port, const FabricFrame& f);

  /// One cell time: a single request/grant/accept iteration, then the
  /// matched frames transfer.  Returns frames moved (<= min(N, M)).
  unsigned cycle();

  /// Drain a delivered frame from an output.
  [[nodiscard]] bool pull(std::uint32_t output_port, FabricFrame& out);

  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t transferred() const { return transferred_; }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

 private:
  unsigned inputs_, outputs_;
  std::size_t depth_;
  // voqs_[i][j]: frames at input i destined to output j.
  std::vector<std::vector<std::deque<FabricFrame>>> voqs_;
  std::vector<std::deque<FabricFrame>> delivered_;  ///< per output
  // iSLIP rotating pointers.
  std::vector<std::size_t> grant_ptr_;   ///< per output
  std::vector<std::size_t> accept_ptr_;  ///< per input
  std::uint64_t drops_ = 0;
  std::uint64_t transferred_ = 0;
  std::uint64_t cycles_ = 0;
};

}  // namespace ss::fabric
