// link_model.hpp — outgoing link serialization model.
//
// The Transmission Engine's "network" end: a frame of B bytes occupies the
// link for B*8/line_gbps nanoseconds.  Frames serialize one at a time, so
// a frame handed over while the link is busy departs when the link frees.
// The paper's Figure-8 measurements exclude socket system calls ("we
// report the output bandwidth of streams without making any network stack
// system calls"), which is exactly what this pure serialization model
// captures.  The link keeps only when it frees; transmit volume is counted
// by the Transmission Engine's attached metrics (te.tx_frames, te.tx_bytes).
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/sim_time.hpp"

namespace ss::queueing {

class LinkModel {
 public:
  explicit LinkModel(double gbps) : gbps_(gbps) {}

  /// Hand a frame to the link at `ready_ns`; returns its departure time
  /// (end of serialization).
  std::uint64_t transmit(std::uint32_t bytes, std::uint64_t ready_ns) {
    const auto ser =
        static_cast<std::uint64_t>(packet_time_ns(bytes, gbps_) + 0.5);
    const std::uint64_t start = std::max(ready_ns, busy_until_);
    busy_until_ = start + (ser == 0 ? 1 : ser);
    return busy_until_;
  }

  [[nodiscard]] double gbps() const { return gbps_; }
  [[nodiscard]] std::uint64_t busy_until_ns() const { return busy_until_; }

 private:
  double gbps_;
  std::uint64_t busy_until_ = 0;
};

}  // namespace ss::queueing
