// slo_report.hpp — did the system deliver what admission promised?
//
// Admission control issues per-stream guarantees (share of the link, a
// delay bound, a loss window); the QoS monitor and the chip's counters
// record what actually happened.  This module closes the loop: one
// verdict per stream per guarantee, so an operator (or a test) can read
// "S3: bandwidth OK (4.01/4.00 MBps), delay OK (p100 310us <= 480us),
// window OK (worst 1-in-8 <= 1-in-8)" instead of cross-referencing three
// subsystems.  The integration tests use it as the single source of truth
// for "the guarantees held".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "core/qos_monitor.hpp"
#include "hw/register_block.hpp"

namespace ss::hw {
class SchedulerChip;
}

namespace ss::core {

struct StreamSlo {
  // Bandwidth: delivered mean vs the admitted guaranteed share.
  bool bandwidth_ok = true;
  double delivered_mbps = 0.0;
  double guaranteed_mbps = 0.0;
  // Delay: worst observed vs the admitted bound (best-effort streams skip).
  bool delay_ok = true;
  double max_delay_us = 0.0;
  double bound_us = 0.0;
  // Loss window: violations counted by the scheduler.
  bool window_ok = true;
  std::uint64_t window_violations = 0;
  bool best_effort = false;

  [[nodiscard]] bool ok() const {
    return bandwidth_ok && delay_ok && window_ok;
  }
};

struct SloReport {
  bool all_ok = true;
  std::vector<StreamSlo> streams;
  [[nodiscard]] std::string render() const;
};

class SloEvaluator {
 public:
  /// `link_mbps` — the provisioned link in MBps (guaranteed share x this
  /// = the bandwidth floor).  `packet_time_us` converts the admission
  /// delay bounds (packet-times) to microseconds.  `bandwidth_tolerance`
  /// — delivered may fall this fraction below the floor before failing
  /// (quantization of integer periods).
  SloEvaluator(double link_mbps, double packet_time_us,
               double bandwidth_tolerance = 0.05);

  /// Evaluate stream `i` of the admission report against the monitor and
  /// the slot's hardware counters.
  [[nodiscard]] StreamSlo evaluate_stream(
      const AdmissionEntry& entry, const QosMonitor& monitor,
      const hw::SlotCounters& counters, std::uint32_t stream) const;

  [[nodiscard]] SloReport evaluate(const AdmissionReport& admission,
                                   const QosMonitor& monitor,
                                   const hw::SchedulerChip& chip) const;

 private:
  double link_mbps_;
  double packet_time_us_;
  double tolerance_;
};

}  // namespace ss::core
