#include "core/slo_report.hpp"

#include <cstdio>

#include "hw/scheduler_chip.hpp"

namespace ss::core {

SloEvaluator::SloEvaluator(double link_mbps, double packet_time_us,
                           double bandwidth_tolerance)
    : link_mbps_(link_mbps),
      packet_time_us_(packet_time_us),
      tolerance_(bandwidth_tolerance) {}

StreamSlo SloEvaluator::evaluate_stream(const AdmissionEntry& entry,
                                        const QosMonitor& monitor,
                                        const hw::SlotCounters& counters,
                                        std::uint32_t stream) const {
  StreamSlo s;
  s.best_effort = entry.best_effort;
  s.delivered_mbps = monitor.mean_mbps(stream);
  s.guaranteed_mbps = entry.guaranteed_share * link_mbps_;
  if (!entry.best_effort) {
    s.bandwidth_ok =
        s.delivered_mbps >= s.guaranteed_mbps * (1.0 - tolerance_);
    s.max_delay_us = monitor.max_delay_us(stream);
    s.bound_us = entry.delay_bound_packet_times * packet_time_us_;
    // One extra packet-time of serialization rides on every bound.
    s.delay_ok = s.max_delay_us <= s.bound_us + packet_time_us_;
  }
  s.window_violations = counters.violations;
  s.window_ok = counters.violations == 0;
  return s;
}

SloReport SloEvaluator::evaluate(const AdmissionReport& admission,
                                 const QosMonitor& monitor,
                                 const hw::SchedulerChip& chip) const {
  SloReport rep;
  for (std::uint32_t i = 0; i < admission.entries.size(); ++i) {
    StreamSlo s = evaluate_stream(
        admission.entries[i], monitor,
        chip.slot(static_cast<hw::SlotId>(i)).counters(), i);
    rep.all_ok = rep.all_ok && s.ok();
    rep.streams.push_back(s);
  }
  return rep;
}

std::string SloReport::render() const {
  std::string out;
  char line[256];
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const StreamSlo& s = streams[i];
    if (s.best_effort) {
      std::snprintf(line, sizeof line,
                    "S%zu: best-effort, delivered %.2f MBps\n", i + 1,
                    s.delivered_mbps);
      out += line;
      continue;
    }
    std::snprintf(line, sizeof line,
                  "S%zu: bandwidth %s (%.2f/%.2f MBps), delay %s "
                  "(max %.0f us <= %.0f us), window %s (%llu violations)\n",
                  i + 1, s.bandwidth_ok ? "OK" : "FAIL", s.delivered_mbps,
                  s.guaranteed_mbps, s.delay_ok ? "OK" : "FAIL",
                  s.max_delay_us, s.bound_us + 0.0,
                  s.window_ok ? "OK" : "FAIL",
                  static_cast<unsigned long long>(s.window_violations));
    out += line;
  }
  out += all_ok ? "SLO: every guarantee held\n"
                : "SLO: at least one guarantee FAILED\n";
  return out;
}

}  // namespace ss::core
