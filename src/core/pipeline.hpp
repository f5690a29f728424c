// pipeline.hpp — the one ShareStreams pipeline core.
//
// Section 5.1's endsystem is one pipeline: per-stream QM rings, a decision
// on the card, then the Transmission Engine.  Endsystem and
// ThreadedEndsystem differ only in how arrivals reach the rings, so the
// rest is written once here: the chip behind its scheduler front (the
// guard, the only object a drain loop calls to schedule), QM, link, TE,
// LOAD and re-LOAD, the metric bundles and the grant-burst transmit.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dwcs/modes.hpp"
#include "hw/scheduler_chip.hpp"
#include "queueing/link_model.hpp"
#include "queueing/queue_manager.hpp"
#include "queueing/transmission_engine.hpp"
#include "robust/fault_plan.hpp"
#include "robust/guarded_scheduler.hpp"
#include "robust/recovery.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/instruments.hpp"
#include "telemetry/metrics.hpp"

namespace ss::core {

/// Settings every realization of the pipeline shares.
struct PipelineConfig {
  hw::ChipConfig chip{};
  double link_gbps = 1.0;
  /// Pipeline-wide metrics (nullptr = off, the default: the hot path then
  /// pays one null test per layer event).  Every layer registers its
  /// instruments here at LOAD; the registry may be snapshot from another
  /// thread while the run is in flight.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Decision-audit session (nullptr = off): rule provenance per
  /// comparison, the flight-recorder ring, and SLO burn attribution.  A
  /// forced failover dumps the session automatically (cause "failover")
  /// when it carries a dump path.
  telemetry::AuditSession* audit = nullptr;
  /// Hot-path self-profiler (nullptr = off): the chip attributes decision
  /// and shuffle-pass time, the host loop its own stages.
  telemetry::Profiler* profiler = nullptr;
  /// Fault plane (seed == 0 = disabled, the default: the scheduler front
  /// is then the plain chip).  When enabled, every chip decision cycle
  /// becomes fallible and is driven through robust::kRecoveryPolicy;
  /// exhaustion fails the run over to the software reference scheduler
  /// mid-flight.
  robust::FaultProfile faults{};
};

/// Fault-plane outcome of a run (all zero when the plane is off).
struct FaultReport {
  robust::RecoveryStats robust{};
  std::uint64_t faults_injected = 0;
  bool failed_over = false;
};

/// Realizations inherit the core privately and drive guard_, qm_ and te_
/// directly from their own loops.
class Pipeline {
 public:
  Pipeline(const Pipeline&) = delete;  // guard_ and te_ point into *this
  Pipeline& operator=(const Pipeline&) = delete;

  [[nodiscard]] const hw::SchedulerChip& chip() const { return chip_; }
  /// Host nanoseconds per chip packet-time (one reference frame on the
  /// link): chip vtime * packet_time_ns() == link time.
  [[nodiscard]] double packet_time_ns() const { return packet_time_ns_; }

 protected:
  /// One chip packet-time is the serialization of `ref_frame_bytes` at
  /// the configured link rate.
  Pipeline(const PipelineConfig& cfg, std::uint32_t ref_frame_bytes);

  /// Admit a stream with a QM ring of `ring_capacity` frames.  Returns its
  /// index (== slot ID).  Throws std::length_error once every chip slot
  /// holds a stream.
  std::uint32_t admit(const dwcs::StreamRequirement& req,
                      std::size_t ring_capacity);

  /// LOAD every admitted slot (fair-share periods over the whole set),
  /// then attach the metric bundles, the audit session and the profiler.
  void load();

  /// Re-LOAD one slot with a new requirement (fair-share periods over the
  /// updated set).  The first deadline is absolute, as on the first LOAD.
  void reload(std::uint32_t stream, const dwcs::StreamRequirement& req);

  /// Send a decision's grants through the TE as one burst, each at its
  /// emission vtime.  `records` is overwritten with one record per frame
  /// sent; returns the frames sent.
  std::uint64_t transmit_grants(const hw::DecisionOutcome& out,
                                std::vector<queueing::TxRecord>& records);

  /// Fill in the fault-plane outcome (left at zero when the plane is off).
  void report_faults(FaultReport& rep) const;

  double packet_time_ns_;
  hw::SchedulerChip chip_;
  std::unique_ptr<robust::FaultPlan> fault_plan_;  ///< null = plane off
  robust::GuardedScheduler guard_;
  queueing::QueueManager qm_;
  queueing::LinkModel link_;
  queueing::TransmissionEngine te_;
  std::vector<dwcs::StreamRequirement> reqs_;  ///< one per slot
  // Metric handles, attached at LOAD when metrics are on (they must
  // outlive the layers they are attached to).
  telemetry::EndsystemMetrics es_metrics_;
  telemetry::RobustMetrics robust_metrics_;

 private:
  void load_slot(std::uint32_t stream, std::uint32_t fair_period);

  telemetry::MetricsRegistry* metrics_;
  telemetry::AuditSession* audit_;
  telemetry::Profiler* profiler_;
  std::vector<queueing::BlockGrant> burst_;  ///< reused every decision
  telemetry::ChipMetrics chip_metrics_;
  telemetry::QueueMetrics qm_metrics_;
  telemetry::TxMetrics tx_metrics_;
};

}  // namespace ss::core
