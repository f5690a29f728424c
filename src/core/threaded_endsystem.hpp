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
//
// Everything else is the shared core::Pipeline, so a stream set loads the
// same slots here as in Endsystem.  The producer thread only pushes into
// the rings (feeding the QM counters, and the audit's atomic
// note_overflow() on a full ring); the scheduler thread owns the chip, the
// TE, the fault plane and every profiled stage (decisions, transmit
// bursts, reload commits), so a failover is invisible to the producer.
// Every metric keeps one writer (metrics.hpp): the producer thread writes
// only qm.enqueued, qm.ring_full_pushes and qm.occupancy_high_water, the
// scheduler thread every other pipeline metric, each on its own cache
// line, while a monitor thread snapshots the registry.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/pipeline.hpp"

namespace ss::core {

/// The shared fields are PipelineConfig's.
struct ThreadedConfig : PipelineConfig {
  std::uint32_t frame_bytes = 1500;  ///< every frame; one packet-time
  std::size_t ring_capacity = 4096;
};

struct ThreadedReport : FaultReport {
  std::uint64_t frames_produced = 0;
  std::uint64_t frames_transmitted = 0;
  std::uint64_t producer_full_stalls = 0;  ///< pushes that found a ring full
  std::uint64_t reloads_applied = 0;       ///< mid-run re-LOADs committed
  double wall_seconds = 0.0;
  double pps = 0.0;
  std::vector<std::uint64_t> per_stream_tx;
};

class ThreadedEndsystem : private Pipeline {
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
  /// re-LOADs without losing or duplicating frames.  A request for a
  /// stream whose previous request is still pending replaces that
  /// request's requirement: the latest one wins and a superseded request
  /// is never applied, so the mailbox holds at most one entry per stream.
  /// Throws std::invalid_argument for a stream that was never added.
  void request_reload(std::uint32_t stream,
                      const dwcs::StreamRequirement& req);

 private:
  ThreadedConfig cfg_;

  // Control-plane mailbox (cold path): the flag keeps the scheduler loop's
  // common case to one relaxed atomic load, no lock.  One entry per
  // stream, stamped when its first still-pending request was posted, so
  // the commit observes the longest request-to-commit wait
  // (es.reload_latency_ns).
  struct PendingReload {
    std::uint32_t stream;
    dwcs::StreamRequirement req;
    std::chrono::steady_clock::time_point posted;
  };
  std::mutex reload_mu_;
  std::vector<PendingReload> pending_reloads_;
  std::atomic<bool> reload_pending_{false};
};

}  // namespace ss::core
