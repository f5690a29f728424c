// transmission_engine.hpp — the TE of Figure 3.
//
// "Transmission Engine (TE) threads are responsible for enabling transfer
// of packets in scheduled streams to the network (set DMA registers on NI
// to enable DMA pulls)."  Given a decision's scheduled Stream IDs from the
// card, the TE pops the head frame of each granted stream's queue and
// hands it to the link model, recording per-frame queuing delay
// (departure - arrival), the series Figures 8 and 9 are built from.
//
// A decision grants each slot at most once (a prefix of one sorted block,
// or the single winner), so a burst is served one pop per grant: there is
// no run of grants to one stream to merge.  A burst that does repeat a
// stream is still served correctly, one head frame per grant.
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

  /// Transmit a decision's grant burst, in grant order: each grant pops
  /// its stream's head frame and hands it to the link no earlier than the
  /// grant's emit time or the frame's arrival.  A grant whose queue is
  /// empty is a spurious schedule (the card ran ahead of the QM) and is
  /// counted.  Returns the number of frames transmitted; per-frame records
  /// are appended to `out` when non-null.
  std::size_t transmit_block(std::span<const BlockGrant> grants,
                             std::vector<TxRecord>* out = nullptr);

  /// Keep every frame's record in records() (off by default: the log
  /// grows by one record per frame for the whole run).  transmit_block's
  /// `out` records do not depend on it.
  void set_record_frames(bool v) { record_ = v; }

  /// Attach live metrics (nullptr detaches): transmit volume, grant-burst
  /// size distribution, spurious schedules, per-stream frame counts.
  void attach_metrics(telemetry::TxMetrics* m) { metrics_ = m; }

  [[nodiscard]] const std::vector<TxRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::uint64_t spurious_schedules() const { return spurious_; }

 private:
  QueueManager& qm_;
  LinkModel& link_;
  bool record_ = false;
  std::vector<TxRecord> records_;
  std::uint64_t spurious_ = 0;
  telemetry::TxMetrics* metrics_ = nullptr;
};

}  // namespace ss::queueing
