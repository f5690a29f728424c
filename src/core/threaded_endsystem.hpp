// threaded_endsystem.hpp — concurrent queuing / scheduling / transmission.
//
// "A key design choice is to allow concurrent queuing of frames,
// scheduling and streaming.  This is done by synchronization-free circular
// queues with separate read and write pointers ... This allows frames to
// be queued while scheduling decisions and transfer to the network are
// being completed concurrently."  (Section 5.1.)
//
// This realization runs the paper's claim literally: a PRODUCER thread
// (the application/Queue Manager side) fills the per-stream SPSC rings
// while the SCHEDULER thread (stream selection + Transmission Engine)
// drains them — the only shared state is the rings' read/write indices.
// The scheduler thread discovers new arrivals by observing ring occupancy
// (consumed + size = arrived), exactly how the card-side streaming unit
// discovers arrival-time batches.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "dwcs/modes.hpp"
#include "hw/scheduler_chip.hpp"
#include "queueing/link_model.hpp"
#include "queueing/queue_manager.hpp"
#include "queueing/traffic_gen.hpp"
#include "queueing/transmission_engine.hpp"
#include "robust/fault_plan.hpp"
#include "robust/guarded_scheduler.hpp"
#include "robust/recovery.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/instruments.hpp"
#include "telemetry/metrics.hpp"

namespace ss::core {

struct ThreadedConfig {
  hw::ChipConfig chip{};
  double link_gbps = 1.0;
  std::uint32_t frame_bytes = 1500;
  std::size_t ring_capacity = 4096;
  /// Pipeline-wide metrics (nullptr = off).  The producer thread feeds the
  /// QM counters while the scheduler thread feeds chip/TE/loop counters —
  /// a monitor thread may snapshot the registry concurrently; the counter
  /// cells are per-thread so the threads never contend on a cache line.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Decision-audit session (nullptr = off).  The scheduler thread feeds
  /// the comparison/decision hooks; the producer thread only touches the
  /// atomic note_overflow() path on ring-full stalls.
  telemetry::AuditSession* audit = nullptr;
  /// Hot-path self-profiler (nullptr = off).  The scheduler thread owns
  /// every profiled stage here — decision cycles, transmit bursts and
  /// reload commits; the producer thread never records.
  telemetry::Profiler* profiler = nullptr;
  /// Fault plane (seed == 0 = disabled).  Faults are injected and
  /// recovered entirely on the scheduler thread; the producer thread
  /// never touches the fallible hardware, so the failover is invisible to
  /// it — the rings keep draining.
  robust::FaultProfile faults{};
  robust::RecoveryConfig recovery{};
};

struct ThreadedReport {
  std::uint64_t frames_produced = 0;
  std::uint64_t frames_transmitted = 0;
  std::uint64_t producer_full_stalls = 0;  ///< pushes that found a ring full
  std::uint64_t reloads_applied = 0;       ///< mid-run re-LOADs committed
  double wall_seconds = 0.0;
  double pps = 0.0;
  std::vector<std::uint64_t> per_stream_tx;
  // Fault-plane outcome (all zero when the plane is disabled).
  robust::RecoveryStats robust{};
  std::uint64_t faults_injected = 0;
  bool failed_over = false;
};

class ThreadedEndsystem {
 public:
  explicit ThreadedEndsystem(const ThreadedConfig& cfg);

  /// Admit a stream (requirement -> slot config, one slot per stream).
  /// Throws std::length_error once every chip slot holds a stream.
  std::uint32_t add_stream(const dwcs::StreamRequirement& req);

  /// Run: the producer thread emits `frames_per_stream` frames per stream
  /// round-robin as fast as the rings accept; the calling thread runs the
  /// scheduler+TE loop until everything produced has been transmitted.
  ThreadedReport run(std::uint64_t frames_per_stream);

  /// Control plane: request a mid-run re-LOAD of `stream` with a new
  /// requirement.  Safe to call from any thread while run() is executing;
  /// the scheduler thread commits it between decision cycles (the chip is
  /// single-owner, exactly like the card's LOAD path).  Frames already in
  /// the stream's ring survive the reload — the scheduler re-announces
  /// them to the freshly loaded slot, so conservation holds across
  /// reconfigurations.  The batch drain therefore races arbitrary
  /// re-LOADs without losing or duplicating frames.  Throws
  /// std::invalid_argument for a stream that was never added.
  void request_reload(std::uint32_t stream,
                      const dwcs::StreamRequirement& req);

 private:
  ThreadedConfig cfg_;
  std::unique_ptr<hw::SchedulerChip> chip_;
  std::unique_ptr<robust::FaultPlan> fault_plan_;
  std::unique_ptr<robust::GuardedScheduler> guard_;
  queueing::QueueManager qm_;
  queueing::LinkModel link_;
  queueing::TransmissionEngine te_;
  std::vector<dwcs::StreamRequirement> reqs_;

  // Control-plane mailbox (cold path): the flag keeps the scheduler loop's
  // common case to one relaxed atomic load, no lock.  Each request is
  // stamped at post time so the commit can observe the request-to-commit
  // latency (es.reload_latency_ns).
  struct PendingReload {
    std::uint32_t stream;
    dwcs::StreamRequirement req;
    std::chrono::steady_clock::time_point posted;
  };
  std::mutex reload_mu_;
  std::vector<PendingReload> pending_reloads_;
  std::atomic<bool> reload_pending_{false};

  // Pre-resolved metric handles (attached when cfg_.metrics is set).
  telemetry::ChipMetrics chip_metrics_;
  telemetry::QueueMetrics qm_metrics_;
  telemetry::TxMetrics tx_metrics_;
  telemetry::EndsystemMetrics es_metrics_;
  telemetry::RobustMetrics robust_metrics_;
};

}  // namespace ss::core
