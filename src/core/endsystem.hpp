// endsystem.hpp — the ShareStreams Endsystem / Host-router realization.
//
// Figure 3 of the paper, end to end: producers fill per-stream SPSC rings
// on the Stream processor (Queue Manager); 16-bit arrival-time offsets are
// pushed to the card over PCI in fixed-size PIO batches (§5.2); the
// SchedulerChip (cycle-level FPGA simulation) picks winners; scheduled
// Stream IDs come back in one PIO read per decision; the Transmission
// Engine pops the granted stream's head frame onto the link model; the QoS
// monitor records bandwidth and delay — the Figures 8/9 pipeline.  The
// Streaming unit's §4.2 push/pull refill is modeled on its own by
// hw::StreamingUnit (bench/ablation_streaming).
//
// Time bases: the chip advances in packet-times (one reference-frame
// serialization each); the host/link side runs in nanoseconds.  One chip
// packet-time is pinned to the serialization time of `ref_frame_bytes` at
// the link rate, so chip vtime * packet_time_ns == link time.
//
// The pipeline itself (chip behind its scheduler front, QM, TE, LOAD,
// metric bundles) is core::Pipeline; this realization adds what is its
// own: timed delivery of frames generated in fixed-size chunks from the
// drain loop, PCI accounting, the frame trace and the QoS monitor.
// Memory is O(streams x (ring + chunk)) for any run length.
//
// Throughput accounting mirrors Section 5.2 exactly: the run is clocked
// after all frames are queued ("we start the clock after 64000 packets
// from each stream are queued"), pps-excluding-PCI divides frames by the
// measured host loop time, and pps-including-PCI adds the modeled PCI
// PIO exchange time.  Generating a later chunk is not host loop time.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/pipeline.hpp"
#include "core/qos_monitor.hpp"
#include "hw/pci.hpp"
#include "queueing/traffic_gen.hpp"
#include "telemetry/frame_trace.hpp"

namespace ss::core {

/// The shared fields are PipelineConfig's.  Here the fault plane makes
/// every PCI transfer fallible too and metrics add the PCI layer.
struct EndsystemConfig : PipelineConfig {
  std::uint32_t ref_frame_bytes = 1500;     ///< defines one packet-time
  hw::PciConfig pci{};
  unsigned pci_batch = 32;                  ///< arrival offsets per PIO push
  std::uint64_t bw_window_ns = 10'000'000;  ///< Figure-8 window (10 ms)
  bool keep_series = true;
  /// QM ring slots per stream.  This reserves address space; a ring
  /// commits memory only as far as its backlog first reaches.
  std::size_t ring_capacity = 1 << 17;
  /// Streaming per-frame delay histogram in the QoS monitor (estimated
  /// percentiles at O(1) memory; independent of keep_series).
  bool delay_histogram = false;
  /// Frame-lifecycle trace sink (nullptr = off): arrival -> enqueue ->
  /// grant -> PCI -> transmit/drop events for Perfetto.
  telemetry::FrameTrace* frame_trace = nullptr;
};

struct EndsystemReport : FaultReport {
  std::uint64_t frames = 0;       ///< completed (delivered + dropped late)
  std::uint64_t dropped_late = 0; ///< late heads discarded by the card
  std::uint64_t link_ns = 0;      ///< simulated link time span
  /// Measured wall time of the drain loop, less the time spent
  /// generating frame chunks after the first.
  double host_seconds = 0.0;
  std::uint64_t pci_ns = 0;       ///< modeled PCI exchange time
  std::uint64_t decision_cycles = 0;
  /// Decision cycles that committed a grant (non-idle).  The per-decision
  /// cost denominator: idle cycles only advance vtime and run none of the
  /// LOAD/SCHEDULE/PRIORITY_UPDATE datapath, so averaging over them
  /// understates the real decision cost whenever the drain loop idles.
  std::uint64_t committed_decisions = 0;
  double pps_excl_pci = 0.0;
  double pps_incl_pci = 0.0;
  std::uint64_t spurious_schedules = 0;
};

class Endsystem : private Pipeline {
 public:
  explicit Endsystem(const EndsystemConfig& cfg);

  /// Admit a stream: the requirement is mapped to a slot configuration
  /// (EDF / static-priority / fair-share / window-constrained) and loaded
  /// into the chip.  One stream per slot here; see AggregationManager for
  /// the streamlet case.  Returns the stream index (== slot ID).  Throws
  /// std::length_error once every chip slot holds a stream.
  std::uint32_t add_stream(const dwcs::StreamRequirement& req,
                           std::unique_ptr<queueing::TrafficGen> gen,
                           std::uint32_t frame_bytes);

  /// Recompute fair-share periods across the admitted set and (re)load
  /// every slot.  Called automatically by run(); exposed for tests.
  void finalize_admission();

  /// Utilization of the admitted set: sum of 1/T_i in packet-times.  > 1
  /// means deadline guarantees cannot all hold (the framework's QoS
  /// degradation region).
  [[nodiscard]] double utilization() const;

  /// Generate `frames_per_stream` frames per stream, a chunk at a time,
  /// deliver them at their generated arrival times, and drain through the
  /// scheduler until every queue is empty.
  EndsystemReport run(std::uint64_t frames_per_stream);

  /// Per-stream frame counts.  Weight-proportional counts keep every
  /// stream backlogged until the common end of the run, so the measured
  /// bandwidth ratios reflect the contended steady state rather than the
  /// work-conserving redistribution after light streams drain.  Throws
  /// std::invalid_argument unless there is one count per stream.
  EndsystemReport run(const std::vector<std::uint64_t>& frames_per_stream);

  [[nodiscard]] const QosMonitor& monitor() const { return *monitor_; }
  using Pipeline::chip;
  using Pipeline::packet_time_ns;

 private:
  EndsystemConfig cfg_;
  hw::PciModel pci_;
  std::unique_ptr<QosMonitor> monitor_;

  struct StreamCtx {
    std::unique_ptr<queueing::TrafficGen> gen;
    std::uint32_t frame_bytes;
  };
  std::vector<StreamCtx> streams_;  ///< parallel to Pipeline::reqs_
  bool admitted_ = false;

  // Pre-resolved metric handles for the layer only this realization has
  // (attached when cfg_.metrics is set; they must outlive the layer).
  telemetry::PciMetrics pci_metrics_;
};

}  // namespace ss::core
