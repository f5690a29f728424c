// queue_manager.hpp — the Queue Manager (QM) of the Stream processor.
//
// "The ShareStreams architecture maintains per-stream queues usually
// created on a stream processor by a Queue Manager (QM). ... As streams
// arrive, their service attributes or constraints are transferred to the
// FPGA PCI card."  (Section 4.2.)  The QM owns one SPSC ring per stream,
// admits producers, batches 16-bit arrival-time offsets for transfer to
// the card, and hands frames to the Transmission Engine, one per grant,
// when their stream ID comes back scheduled.  Enqueue, full-ring and
// occupancy counts go to the attached metrics; the QM itself keeps only
// each stream's dequeued count, which batch_arrivals needs to find the
// first frame not yet batched.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "queueing/frame.hpp"
#include "queueing/spsc_ring.hpp"
#include "telemetry/instruments.hpp"

namespace ss::queueing {

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

  /// Producer API (one producer per stream).  Returns false, and counts
  /// a full-ring push, when the ring has no free slot.
  bool produce(std::uint32_t stream, const Frame& f);

  /// Consumer API (Transmission Engine side): pop the head frame.
  std::optional<Frame> consume(std::uint32_t stream);
  [[nodiscard]] std::size_t depth(std::uint32_t stream) const;

  /// Batch the next `max` arrival offsets of `stream` for transfer to the
  /// card WITHOUT consuming frames (the card schedules on arrival times;
  /// frames leave the host only when their ID is scheduled).  Consumer
  /// side: the offsets are read from the frames still in the ring, just
  /// past those already batched; the QM counts the batched frames.  A
  /// frame consumed before it was batched never reaches the card.
  std::vector<std::uint16_t> batch_arrivals(std::uint32_t stream,
                                            std::size_t max);

  [[nodiscard]] std::uint64_t quantum_ns() const { return quantum_ns_; }

  /// Attach live metrics (nullptr detaches): enqueue/dequeue counts,
  /// full-ring producer pushes, and the occupancy high-water mark across
  /// every ring.
  void attach_metrics(telemetry::QueueMetrics* m) { metrics_ = m; }

 private:
  std::uint64_t quantum_ns_;
  std::vector<std::unique_ptr<SpscRing<Frame>>> rings_;
  std::vector<std::uint64_t> dequeued_;  ///< frames popped, per stream
  std::vector<std::uint64_t> batched_;   ///< frames batched to the card
  telemetry::QueueMetrics* metrics_ = nullptr;
};

}  // namespace ss::queueing
