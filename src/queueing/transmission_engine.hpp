// transmission_engine.hpp — the TE of Figure 3.
//
// "Transmission Engine (TE) threads are responsible for enabling transfer
// of packets in scheduled streams to the network (set DMA registers on NI
// to enable DMA pulls)."  Given a scheduled Stream ID from the card, the
// TE pops the head frame of that stream's queue and hands it to the link
// model, recording per-frame queuing delay (departure - arrival), the
// series Figures 8 and 9 are built from.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "queueing/link_model.hpp"
#include "queueing/queue_manager.hpp"
#include "telemetry/instruments.hpp"

namespace ss::queueing {

struct TxRecord {
  std::uint32_t stream;
  std::uint32_t bytes;
  std::uint64_t arrival_ns;
  std::uint64_t departure_ns;
  [[nodiscard]] std::uint64_t delay_ns() const {
    return departure_ns - arrival_ns;
  }
};

/// One entry of a decision cycle's grant burst, host-side: the scheduled
/// Stream ID plus the host time its frame may leave.
struct BlockGrant {
  std::uint32_t stream;
  std::uint64_t emit_ns;
};

class TransmissionEngine {
 public:
  TransmissionEngine(QueueManager& qm, LinkModel& link)
      : qm_(qm), link_(link) {}

  /// Transmit the head frame of `stream` at host time `now_ns`.
  /// Returns the record, or nullopt if the queue was empty (a spurious
  /// schedule — counted, since it indicates the card ran ahead of the QM).
  std::optional<TxRecord> transmit(std::uint32_t stream, std::uint64_t now_ns);

  /// Transmit a whole grant burst (one block decision's winners) in a
  /// single pass: per-stream runs collapse into one bulk ring pop, the
  /// per-stream counters are sized once, and the records store is reserved
  /// for the burst — the per-packet bookkeeping of `transmit` amortized
  /// over the block.  Grants whose ring is exhausted count as spurious,
  /// exactly as in the one-at-a-time path.  Returns the number of frames
  /// transmitted; per-frame records are appended to `out` when non-null.
  std::size_t transmit_block(std::span<const BlockGrant> grants,
                             std::vector<TxRecord>* out = nullptr);

  /// Keep every frame's record in records() (off by default: the log
  /// grows by one record per frame for the whole run).  The per-stream
  /// counters and transmit_block's `out` records do not depend on it.
  void set_record_frames(bool v) { record_ = v; }

  /// Attach live metrics (nullptr detaches): transmit volume, grant-burst
  /// size distribution, spurious schedules, per-stream frame counts.
  void attach_metrics(telemetry::TxMetrics* m) { metrics_ = m; }

  [[nodiscard]] const std::vector<TxRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::uint64_t spurious_schedules() const { return spurious_; }
  [[nodiscard]] std::uint64_t bytes_sent(std::uint32_t stream) const {
    return stream < bytes_per_stream_.size() ? bytes_per_stream_[stream] : 0;
  }
  [[nodiscard]] std::uint64_t frames_sent(std::uint32_t stream) const {
    return stream < frames_per_stream_.size() ? frames_per_stream_[stream]
                                              : 0;
  }

 private:
  QueueManager& qm_;
  LinkModel& link_;
  bool record_ = false;
  std::vector<Frame> scratch_;  ///< bulk-pop staging, reused across bursts
  std::vector<TxRecord> records_;
  std::vector<std::uint64_t> bytes_per_stream_;
  std::vector<std::uint64_t> frames_per_stream_;
  std::uint64_t spurious_ = 0;
  telemetry::TxMetrics* metrics_ = nullptr;
};

}  // namespace ss::queueing
