// endsystem.hpp — the ShareStreams Endsystem / Host-router realization.
//
// Figure 3 of the paper, end to end: producers fill per-stream SPSC rings
// on the Stream processor (Queue Manager); 16-bit arrival-time offsets are
// batched over the PCI model to the card; the SchedulerChip (cycle-level
// FPGA simulation) picks winners; scheduled Stream IDs come back; the
// Transmission Engine pops the granted stream's head frame onto the link
// model; the QoS monitor records bandwidth and delay — the Figures 8/9
// pipeline.
//
// Time bases: the chip advances in packet-times (one reference-frame
// serialization each); the host/link side runs in nanoseconds.  One chip
// packet-time is pinned to the serialization time of `ref_frame_bytes` at
// the link rate, so chip vtime * packet_time_ns == link time.
//
// Throughput accounting mirrors Section 5.2 exactly: the run is clocked
// after all frames are queued ("we start the clock after 64000 packets
// from each stream are queued"), pps-excluding-PCI divides frames by the
// measured host loop time, and pps-including-PCI adds the modeled PCI
// PIO/DMA exchange time.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/qos_monitor.hpp"
#include "dwcs/modes.hpp"
#include "hw/pci.hpp"
#include "hw/scheduler_chip.hpp"
#include "hw/sram.hpp"
#include "hw/streaming_unit.hpp"
#include "queueing/link_model.hpp"
#include "queueing/queue_manager.hpp"
#include "queueing/traffic_gen.hpp"
#include "queueing/transmission_engine.hpp"
#include "robust/fault_plan.hpp"
#include "robust/guarded_scheduler.hpp"
#include "robust/recovery.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/frame_trace.hpp"
#include "telemetry/instruments.hpp"
#include "telemetry/metrics.hpp"

namespace ss::core {

struct EndsystemConfig {
  hw::ChipConfig chip{};
  double link_gbps = 1.0;
  std::uint32_t ref_frame_bytes = 1500;     ///< defines one packet-time
  hw::PciConfig pci{};
  unsigned pci_batch = 32;                  ///< arrival offsets per PIO push
  bool dma_bulk = false;                    ///< use DMA pulls for arrivals
  /// Route arrival-time transfers through the card's Streaming unit
  /// (watermark-driven push/pull refill over the arbitrated SRAM bank)
  /// instead of the fixed-size batch accounting above.  The scheduler
  /// then only sees requests whose offsets have physically reached the
  /// card — the full Figure-3 data path.
  bool use_streaming_unit = false;
  hw::StreamingUnitConfig streaming{};
  std::uint64_t bw_window_ns = 10'000'000;  ///< Figure-8 window (10 ms)
  bool keep_series = true;
  std::size_t ring_capacity = 1 << 17;
  /// Streaming per-frame delay histogram in the QoS monitor (estimated
  /// percentiles at O(1) memory; independent of keep_series).
  bool delay_histogram = false;
  /// Pipeline-wide metrics (nullptr = off, the default: the hot path then
  /// pays one null test per layer event).  Every layer — chip, PCI, SRAM,
  /// QM, TE, the host loop itself — registers its instruments here at
  /// finalize_admission() time; the registry may be snapshot from another
  /// thread while the run is in flight.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Frame-lifecycle trace sink (nullptr = off): arrival -> enqueue ->
  /// grant -> PCI -> transmit/drop events for Perfetto.
  telemetry::FrameTrace* frame_trace = nullptr;
  /// Decision-audit session (nullptr = off): rule provenance per
  /// comparison, the flight-recorder ring, and SLO burn attribution
  /// (imported into the QoS monitor at end of run).  A forced failover
  /// dumps the session automatically (cause "failover") when it carries a
  /// dump path.
  telemetry::AuditSession* audit = nullptr;
  /// Hot-path self-profiler (nullptr = off): the chip attributes decision
  /// and shuffle-pass time, the host loop attributes queue-drain, PCI and
  /// transmit time.  Compiled away under -DSS_TELEMETRY=OFF.
  telemetry::Profiler* profiler = nullptr;
  /// Fault plane (seed == 0 = disabled, the default: the run is then
  /// bit-identical to a build without the fault plane).  When enabled,
  /// every PCI transfer and chip decision cycle becomes fallible and is
  /// driven through the recovery policy below; exhaustion fails the run
  /// over to the software reference scheduler mid-flight.
  robust::FaultProfile faults{};
  robust::RecoveryConfig recovery{};
};

struct EndsystemReport {
  std::uint64_t frames = 0;       ///< completed (delivered + dropped late)
  std::uint64_t dropped_late = 0; ///< late heads discarded by the card
  std::uint64_t link_ns = 0;      ///< simulated link time span
  double host_seconds = 0.0;      ///< measured wall time of the drain loop
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
  // Fault-plane outcome (all zero when the plane is disabled).
  robust::RecoveryStats robust{};
  std::uint64_t faults_injected = 0;
  bool failed_over = false;
};

class Endsystem {
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

  /// Pre-generate `frames_per_stream` frames per stream, deliver them at
  /// their generated arrival times, and drain through the scheduler until
  /// every queue is empty.
  EndsystemReport run(std::uint64_t frames_per_stream);

  /// Per-stream frame counts.  Weight-proportional counts keep every
  /// stream backlogged until the common end of the run, so the measured
  /// bandwidth ratios reflect the contended steady state rather than the
  /// work-conserving redistribution after light streams drain.  Throws
  /// std::invalid_argument unless there is one count per stream.
  EndsystemReport run(const std::vector<std::uint64_t>& frames_per_stream);

  [[nodiscard]] const QosMonitor& monitor() const { return *monitor_; }
  [[nodiscard]] const hw::SchedulerChip& chip() const { return *chip_; }
  [[nodiscard]] double packet_time_ns() const { return packet_time_ns_; }

  /// Streaming-unit statistics (nullptr unless use_streaming_unit).
  [[nodiscard]] const hw::StreamingStats* streaming_stats() const {
    return streaming_ ? &streaming_->stats() : nullptr;
  }

 private:
  EndsystemConfig cfg_;
  double packet_time_ns_;
  std::unique_ptr<hw::SchedulerChip> chip_;
  std::unique_ptr<robust::FaultPlan> fault_plan_;
  std::unique_ptr<robust::GuardedScheduler> guard_;
  hw::PciModel pci_;
  hw::SramBank bank_;
  std::unique_ptr<hw::StreamingUnit> streaming_;
  queueing::QueueManager qm_;
  queueing::LinkModel link_;
  queueing::TransmissionEngine te_;
  std::unique_ptr<QosMonitor> monitor_;

  struct StreamCtx {
    dwcs::StreamRequirement req;
    std::unique_ptr<queueing::TrafficGen> gen;
    std::uint32_t frame_bytes;
  };
  std::vector<StreamCtx> streams_;
  bool admitted_ = false;

  // Pre-resolved metric handles (attached to each layer when
  // cfg_.metrics is set; the structs must outlive the attached layers).
  telemetry::ChipMetrics chip_metrics_;
  telemetry::PciMetrics pci_metrics_;
  telemetry::SramMetrics sram_metrics_;
  telemetry::QueueMetrics qm_metrics_;
  telemetry::TxMetrics tx_metrics_;
  telemetry::EndsystemMetrics es_metrics_;
  telemetry::RobustMetrics robust_metrics_;
};

}  // namespace ss::core
