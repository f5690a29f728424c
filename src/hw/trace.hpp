// trace.hpp — decision-cycle tracing for the scheduler fabric.
//
// A hardware team debugging the real ShareStreams card watched waveforms;
// the simulator's equivalent is a per-decision-cycle trace: the FSM
// boundaries, the attribute words driven onto the lanes, the block after
// the shuffle passes, the circulated ID and the per-slot adjustments.
// The Tracer is optional (zero cost when absent) and bounded (a ring of
// the most recent records) so it can stay attached in long runs.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "hw/fields.hpp"

namespace ss::hw {

struct TraceRecord {
  std::uint64_t decision_cycle = 0;
  std::uint64_t vtime_start = 0;
  bool idle = false;
  std::vector<AttrWord> loaded;     ///< lane contents after LOAD
  std::vector<AttrWord> block;      ///< lane contents after SCHEDULE
  std::optional<SlotId> circulated;
  std::vector<SlotId> grants;       ///< emission order
  std::vector<SlotId> drops;
  std::uint64_t hw_cycles = 0;
};

class Tracer {
 public:
  /// Keep at most `depth` most-recent records (0 = unbounded).
  explicit Tracer(std::size_t depth = 64) : depth_(depth) {}

  void record(TraceRecord r);

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] const TraceRecord& at(std::size_t i) const {
    return records_[i];
  }
  [[nodiscard]] const TraceRecord& latest() const { return records_.back(); }
  void clear() { records_.clear(); }

  /// Text rendering of one record (the "waveform" line), e.g.:
  ///   #12 vt=48  load[D3:1/4 D5:0/2 ...] -> block[S2 S0 S3 S1] circ=S2
  ///   grants=[S2 S0 S3 S1] drops=[] (13 cyc)
  [[nodiscard]] static std::string render(const TraceRecord& r);

  /// Render the whole retained window.
  [[nodiscard]] std::string render_all() const;

  /// Chrome trace-event JSON of the retained window: one "decisions"
  /// track of complete events (one per decision cycle, ts = hw-cycle
  /// offset as ns, dur = the cycle's hw_cycles) carrying the grant /
  /// drop / circulation args.  Loadable in Perfetto / chrome://tracing.
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  std::size_t depth_;
  std::deque<TraceRecord> records_;
};

}  // namespace ss::hw
