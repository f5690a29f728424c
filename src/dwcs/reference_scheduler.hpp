// reference_scheduler.hpp — the processor-resident DWCS scheduler.
//
// This is the software realization the paper's Section 4.1 measures (the
// [27]-style host scheduler whose ~50 us decision latency motivates the
// FPGA offload): a linear scan over all streams per decision, followed by
// the winner/loser attribute adjustments.  Two roles in this repository:
//
//   1. ORACLE — its semantics mirror the hardware chip's decision cycle
//      (same Table-2 ordering, same service/miss update rules, same
//      virtual-time conventions), so randomized cross-check tests can
//      assert the cycle-level simulator and this independently-written
//      scheduler produce identical winner sequences and counters.
//   2. BASELINE — the Section-5.2 bench times its pick+update path on this
//      host to stand in for the software-scheduler comparison points.
//
// Unlike the chip it uses unwrapped 64-bit time; within the 16-bit serial
// horizon the two must agree exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dwcs/ordering.hpp"

namespace ss::dwcs {

enum class StreamMode : std::uint8_t {
  kDwcs,
  kEdf,
  kStaticPrio,
  kFairTag,
};

struct StreamSpec {
  StreamMode mode = StreamMode::kDwcs;
  std::uint32_t period = 1;
  std::uint32_t loss_num = 0;
  std::uint32_t loss_den = 1;
  bool droppable = true;
  std::uint64_t initial_deadline = 0;
};

struct StreamCounters {
  std::uint64_t missed_deadlines = 0;
  std::uint64_t violations = 0;
  std::uint64_t serviced = 0;
  std::uint64_t late_transmissions = 0;
  std::uint64_t winner_cycles = 0;

  friend bool operator==(const StreamCounters&, const StreamCounters&) =
      default;
};

/// One stream's run-time state in the software scheduler.
struct StreamState {
  StreamSpec spec;
  StreamAttrs attrs;      ///< current priority attributes
  std::uint32_t backlog = 0;
  StreamCounters counters;
};

struct SwGrant {
  std::uint32_t stream;
  std::uint64_t emit_vtime;
  bool met_deadline;
};

struct SwDecision {
  bool idle = false;
  std::optional<std::uint32_t> circulated;
  std::vector<SwGrant> grants;
  std::vector<std::uint32_t> drops;  ///< late heads discarded this cycle
};

class ReferenceScheduler {
 public:
  struct Options {
    bool block_mode = false;
    bool min_first = false;
    bool edf_comparison = false;  ///< tag-only ordering (EDF mode)
    /// Block-mode grant batching (mirror of hw::ChipConfig::batch_depth):
    /// at most this many block entries are granted per decision cycle,
    /// 0 = the whole block.  Ignored in WR mode.
    unsigned batch_depth = 0;
  };

  ReferenceScheduler();  ///< default options
  explicit ReferenceScheduler(Options opt);

  /// Add a stream; returns its index.
  std::uint32_t add_stream(const StreamSpec& spec);

  /// Mid-run reconfiguration of an existing stream — the software mirror
  /// of the chip's LOAD (`SchedulerChip::load_slot` on a live slot): the
  /// spec is latched, attributes re-initialized, the backlog and counters
  /// cleared, and any queued service tags discarded.
  void reload_stream(std::uint32_t stream, const StreamSpec& spec);

  void push_request(std::uint32_t stream);
  void push_request(std::uint32_t stream, std::uint64_t arrival);
  /// `n` requests, exactly as n push_request calls with the same stamp
  /// (only a request into an empty stream latches its arrival); n = 0
  /// does nothing.
  void push_requests(std::uint32_t stream, std::uint64_t arrival,
                     std::uint32_t n);
  void push_tagged_request(std::uint32_t stream, std::uint64_t tag,
                           std::uint64_t arrival);

  SwDecision run_decision_cycle();

  [[nodiscard]] std::uint64_t vtime() const { return vtime_; }
  [[nodiscard]] std::uint64_t decision_cycles() const { return decisions_; }
  [[nodiscard]] std::size_t stream_count() const { return streams_.size(); }
  [[nodiscard]] const StreamState& stream(std::uint32_t i) const {
    return streams_[i];
  }

 private:
  [[nodiscard]] bool outranks(const StreamAttrs& a,
                              const StreamAttrs& b) const;
  void service_update(StreamState& s, std::uint64_t now, bool circulated);
  /// Returns true if a late head was dropped.
  bool miss_update(StreamState& s, std::uint64_t now);
  void winner_window_adjust(StreamState& s);
  void loser_window_adjust(StreamState& s);

  Options opt_;
  std::vector<StreamState> streams_;
  std::vector<std::vector<std::uint64_t>> tag_fifos_;
  std::uint64_t vtime_ = 0;
  std::uint64_t decisions_ = 0;
};

}  // namespace ss::dwcs
