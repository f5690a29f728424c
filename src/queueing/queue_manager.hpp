// queue_manager.hpp — the Queue Manager (QM) of the Stream processor.
//
// "The ShareStreams architecture maintains per-stream queues usually
// created on a stream processor by a Queue Manager (QM). ... As streams
// arrive, their service attributes or constraints are transferred to the
// FPGA PCI card."  (Section 4.2.)  The QM owns one SPSC ring per stream,
// admits producers, batches 16-bit arrival-time offsets for transfer to
// the card, and hands frames to the Transmission Engine when their stream
// ID comes back scheduled.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "queueing/frame.hpp"
#include "queueing/spsc_ring.hpp"
#include "telemetry/instruments.hpp"

namespace ss::queueing {

struct QueueStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dropped_full = 0;  ///< producer pushes that found the ring full
  std::uint64_t dequeued = 0;
};

class QueueManager {
 public:
  /// `quantum_ns` is the granularity of the 16-bit arrival offsets the QM
  /// communicates to the card.
  explicit QueueManager(std::uint64_t quantum_ns = 1000);

  /// Admit a stream; returns its index.  `ring_capacity` frames.
  std::uint32_t add_stream(std::size_t ring_capacity = 4096);

  [[nodiscard]] std::uint32_t stream_count() const {
    return static_cast<std::uint32_t>(rings_.size());
  }

  /// Producer API (one producer per stream).
  bool produce(std::uint32_t stream, const Frame& f);

  /// Consumer API (Transmission Engine side).
  std::optional<Frame> consume(std::uint32_t stream);

  /// Bulk consumer: pop up to `max` head frames of `stream` into `out`
  /// (appended) in FIFO order, with one ring synchronization round trip
  /// and one stats update for the whole run.  Returns the count popped.
  std::size_t consume_batch(std::uint32_t stream, std::size_t max,
                            std::vector<Frame>& out);
  [[nodiscard]] std::optional<Frame> peek(std::uint32_t stream) const;
  [[nodiscard]] std::size_t depth(std::uint32_t stream) const;

  /// Batch the next `max` arrival offsets of `stream` for transfer to the
  /// card WITHOUT consuming frames (the card schedules on arrival times;
  /// frames leave the host only when their ID is scheduled).  Consumer
  /// side: the offsets are read from the frames still in the ring, just
  /// past those already batched; the QM counts the batched frames.  A
  /// frame consumed before it was batched never reaches the card.
  std::vector<std::uint16_t> batch_arrivals(std::uint32_t stream,
                                            std::size_t max);

  [[nodiscard]] const QueueStats& stats(std::uint32_t stream) const {
    return stats_[stream];
  }
  [[nodiscard]] std::uint64_t quantum_ns() const { return quantum_ns_; }

  /// Attach live metrics (nullptr detaches): enqueue/dequeue counts,
  /// full-ring producer pushes, and the occupancy high-water mark across
  /// every ring.
  void attach_metrics(telemetry::QueueMetrics* m) { metrics_ = m; }

 private:
  std::uint64_t quantum_ns_;
  std::vector<std::unique_ptr<SpscRing<Frame>>> rings_;
  std::vector<QueueStats> stats_;
  std::vector<std::uint64_t> batched_;  ///< frames batched to the card
  telemetry::QueueMetrics* metrics_ = nullptr;
};

}  // namespace ss::queueing
