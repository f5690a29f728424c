// frame_trace.hpp — frame-lifecycle event trace with Chrome/Perfetto export.
//
// One frame's life in the endsystem pipeline is
//
//   arrival -> enqueue -> grant(decision cycle, batch index)
//           -> PCI transfer -> transmit (or drop)
//
// and the question the paper's evaluation keeps asking — where does a
// packet-time actually go? — needs those hops on a timeline, not in a
// counter.  The FrameTrace records each hop as a timestamped event in a
// bounded ring (oldest records overwritten, so it stays attached in long
// runs just like hw::Tracer) and exports Chrome trace-event JSON that
// Perfetto / chrome://tracing loads directly:
//
//   * pid 1 "pipeline stages": one track per stage (arrival, enqueue,
//     grant, pci, transmit, drop); PCI and transmit are duration events,
//     the rest instants.
//   * pid 2 "streams": one track per stream carrying nestable async spans,
//     one span per frame from arrival to transmit/drop, with the grant's
//     decision cycle and batch index attached as an async instant.
//
// Timestamps are simulation nanoseconds (exported in the trace format's
// microsecond unit).  Recording takes a mutex — the trace is an opt-in
// diagnosis tool, attached only when asked for, so producer/scheduler
// threads may both feed it safely; the unattached hot path never sees it.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace ss::telemetry {

enum class PciDir : std::uint8_t { kWrite, kRead };

class FrameTrace {
 public:
  /// Keep at most `capacity` most-recent events.
  explicit FrameTrace(std::size_t capacity = 1 << 16);

  void arrival(std::uint32_t stream, std::uint64_t seq, std::uint64_t ts_ns);
  void enqueue(std::uint32_t stream, std::uint64_t seq, std::uint64_t ts_ns);
  void grant(std::uint32_t stream, std::uint64_t seq, std::uint64_t ts_ns,
             std::uint64_t decision_cycle, std::uint32_t batch_index);
  void pci(PciDir dir, std::uint64_t ts_ns, std::uint64_t dur_ns,
           std::uint32_t bytes);
  void transmit(std::uint32_t stream, std::uint64_t seq,
                std::uint64_t start_ns, std::uint64_t dur_ns,
                std::uint32_t bytes);
  void drop(std::uint32_t stream, std::uint64_t seq, std::uint64_t ts_ns);

  /// Events currently retained / total ever recorded / overwritten by the
  /// ring wrap (recorded - retained once the ring fills).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;
  void clear();

  /// Mirror ring-wrap overwrites into `reg` as
  /// telemetry.trace.dropped_events so a truncated trace is visible in
  /// the metrics snapshot, not just in the export.  Call at attach time.
  void bind_registry(MetricsRegistry& reg);

  /// Chrome trace-event JSON ("JSON Object Format": displayTimeUnit +
  /// a metadata object carrying the wrap-dropped event count +
  /// traceEvents array).  Loadable in Perfetto and chrome://tracing.
  [[nodiscard]] std::string to_chrome_json() const;

  /// Write to_chrome_json() to `path`; false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  enum class Kind : std::uint8_t {
    kArrival,
    kEnqueue,
    kGrant,
    kPci,
    kTransmit,
    kDrop,
  };
  struct Event {
    Kind kind;
    std::uint8_t pci_dir = 0;
    std::uint32_t stream = 0;
    std::uint64_t seq = 0;
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t decision = 0;
    std::uint32_t batch_index = 0;
    std::uint32_t bytes = 0;
  };
  void push(const Event& e);

  mutable std::mutex mu_;
  std::vector<Event> ring_;
  std::size_t head_ = 0;       ///< next write position
  std::size_t count_ = 0;      ///< events currently retained
  std::uint64_t recorded_ = 0; ///< events ever recorded
  std::uint64_t dropped_ = 0;  ///< events overwritten by the ring wrap
  Counter* dropped_counter_ = nullptr;  ///< telemetry.trace.dropped_events
};

}  // namespace ss::telemetry
