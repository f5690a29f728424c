#include "core/pipeline.hpp"

#include <stdexcept>

#include "telemetry/profiler.hpp"
#include "util/sim_time.hpp"

namespace ss::core {

Pipeline::Pipeline(const PipelineConfig& cfg, std::uint32_t ref_frame_bytes)
    : packet_time_ns_(ss::packet_time_ns(ref_frame_bytes, cfg.link_gbps)),
      chip_(cfg.chip),
      fault_plan_(cfg.faults.enabled()
                      ? std::make_unique<robust::FaultPlan>(cfg.faults)
                      : nullptr),
      guard_(chip_, fault_plan_.get()),
      qm_(static_cast<std::uint64_t>(packet_time_ns_)),
      link_(cfg.link_gbps),
      te_(qm_, link_),
      metrics_(cfg.metrics),
      audit_(cfg.audit),
      profiler_(cfg.profiler) {}

std::uint32_t Pipeline::admit(const dwcs::StreamRequirement& req,
                              std::size_t ring_capacity) {
  if (reqs_.size() >= chip_.config().slots) {
    throw std::length_error("core::Pipeline: every chip slot is taken");
  }
  reqs_.push_back(req);
  return qm_.add_stream(ring_capacity);
}

void Pipeline::load_slot(std::uint32_t stream, std::uint32_t fair_period) {
  const dwcs::StreamRequirement& r = reqs_[stream];
  guard_.load_slot(static_cast<hw::SlotId>(stream),
                   dwcs::to_slot_config(r, fair_period),
                   dwcs::to_stream_spec(r, fair_period));
}

void Pipeline::load() {
  const auto periods = dwcs::fair_share_periods(reqs_);
  for (std::uint32_t i = 0; i < reqs_.size(); ++i) load_slot(i, periods[i]);
  if (metrics_ != nullptr) {
    chip_metrics_ = telemetry::ChipMetrics::create(*metrics_);
    qm_metrics_ = telemetry::QueueMetrics::create(*metrics_);
    tx_metrics_ = telemetry::TxMetrics::create(
        *metrics_, static_cast<std::uint32_t>(reqs_.size()));
    es_metrics_ = telemetry::EndsystemMetrics::create(*metrics_);
    chip_.attach_metrics(&chip_metrics_);
    qm_.attach_metrics(&qm_metrics_);
    te_.attach_metrics(&tx_metrics_);
    if (fault_plan_) {
      robust_metrics_ = telemetry::RobustMetrics::create(*metrics_);
      guard_.attach_metrics(&robust_metrics_);
    }
  }
  if (profiler_ != nullptr) {
    chip_.attach_profiler(profiler_);
    if (metrics_ != nullptr) profiler_->bind_registry(*metrics_);
  }
  if (audit_ != nullptr) {
    guard_.attach_audit(audit_);  // and on to the chip and the fault plan
    if (metrics_ != nullptr) audit_->audit().bind_registry(*metrics_);
  }
}

void Pipeline::reload(std::uint32_t stream,
                      const dwcs::StreamRequirement& req) {
  reqs_[stream] = req;
  load_slot(stream, dwcs::fair_share_periods(reqs_)[stream]);
}

std::uint64_t Pipeline::transmit_grants(
    const hw::DecisionOutcome& out, std::vector<queueing::TxRecord>& records) {
  // Sized once and written by index, as the chip writes its grants.
  const std::size_t n = out.grants.size();
  burst_.resize(n);
  const hw::Grant* const grants = out.grants.data();
  queueing::BlockGrant* const burst = burst_.data();
  for (std::size_t i = 0; i < n; ++i) {
    burst[i] = {grants[i].slot,
                static_cast<std::uint64_t>(
                    static_cast<double>(grants[i].emit_vtime) *
                    packet_time_ns_)};
  }
  records.clear();
  std::uint64_t sent = 0;
  {
    SS_PROF(profiler_, telemetry::ProfStage::kTransmit);
    sent = te_.transmit_block(burst_, &records);
  }
  if (metrics_ != nullptr) {
    es_metrics_.frames_completed->add(records.size());
  }
  return sent;
}

void Pipeline::report_faults(FaultReport& rep) const {
  if (!fault_plan_) return;
  rep.robust = guard_.stats();
  rep.faults_injected = fault_plan_->total_injected();
  rep.failed_over = guard_.failed_over();
}

}  // namespace ss::core
