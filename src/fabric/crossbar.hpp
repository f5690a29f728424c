// crossbar.hpp — the switch fabric between input ports and line cards.
//
// An output-queued crossbar model with configurable speedup: every fabric
// cycle each input port may present one frame, and each output port may
// accept up to `speedup` frames into its (bounded) output staging queue.
// Contention beyond the speedup leaves frames at the inputs (head-of-line
// blocking at the input FIFO), and staging overflow drops with a counter
// — the two loss mechanisms a line-card scheduler downstream cannot fix,
// kept explicit so the demo can attribute losses correctly.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

namespace ss::fabric {

struct FabricFrame {
  std::uint32_t input_port = 0;
  std::uint32_t output_port = 0;
  std::uint8_t stream_slot = 0;
  std::uint32_t bytes = 1500;
  std::uint64_t enq_cycle = 0;  ///< fabric cycle it entered the input FIFO
};

class Crossbar {
 public:
  /// `staging_depth` frames per output; `speedup` transfers per output per
  /// fabric cycle (1 = plain output-queued, >1 approaches ideal).
  Crossbar(unsigned inputs, unsigned outputs, unsigned speedup = 2,
           std::size_t staging_depth = 64);

  /// Offer a frame to an input port's FIFO; false (and a drop counter) if
  /// the input FIFO is full.
  bool offer(std::uint32_t input_port, const FabricFrame& f);

  /// Run one fabric cycle: move frames input->output under the speedup
  /// constraint.  Returns the number of frames transferred.
  unsigned cycle();

  /// Drain one frame from an output's staging queue (the line card pulls).
  [[nodiscard]] bool pull(std::uint32_t output_port, FabricFrame& out);

  [[nodiscard]] std::size_t output_depth(std::uint32_t port) const {
    return outputs_[port].size();
  }
  [[nodiscard]] std::uint64_t input_drops() const { return input_drops_; }
  [[nodiscard]] std::uint64_t staging_drops() const { return staging_drops_; }
  [[nodiscard]] std::uint64_t transferred() const { return transferred_; }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  [[nodiscard]] unsigned inputs() const {
    return static_cast<unsigned>(inputs_.size());
  }
  [[nodiscard]] unsigned outputs() const {
    return static_cast<unsigned>(outputs_.size());
  }

 private:
  static constexpr std::size_t kInputFifoDepth = 256;
  std::vector<std::deque<FabricFrame>> inputs_;
  std::vector<std::deque<FabricFrame>> outputs_;
  unsigned speedup_;
  std::size_t staging_depth_;
  std::uint64_t input_drops_ = 0;
  std::uint64_t staging_drops_ = 0;
  std::uint64_t transferred_ = 0;
  std::uint64_t cycles_ = 0;
  std::size_t rr_cursor_ = 0;  ///< round-robin fairness across inputs
};

}  // namespace ss::fabric
