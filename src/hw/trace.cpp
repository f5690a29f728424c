#include "hw/trace.hpp"

#include <cstdio>

namespace ss::hw {

void Tracer::record(TraceRecord r) {
  records_.push_back(std::move(r));
  if (depth_ != 0 && records_.size() > depth_) records_.pop_front();
}

std::string Tracer::render(const TraceRecord& r) {
  char buf[96];
  std::string out;
  std::snprintf(buf, sizeof buf, "#%llu vt=%llu ",
                static_cast<unsigned long long>(r.decision_cycle),
                static_cast<unsigned long long>(r.vtime_start));
  out += buf;
  if (r.idle) {
    out += "idle\n";
    return out;
  }
  out += "load[";
  for (const AttrWord& w : r.loaded) {
    std::snprintf(buf, sizeof buf, "%sS%u:D%u:%u/%u", w.pending ? "" : "~",
                  w.id, w.deadline.raw(), w.loss_num, w.loss_den);
    out += buf;
    out += ' ';
  }
  if (!r.loaded.empty()) out.pop_back();
  out += "] -> block[";
  for (const AttrWord& w : r.block) {
    std::snprintf(buf, sizeof buf, "S%u ", w.id);
    out += buf;
  }
  if (!r.block.empty()) out.pop_back();
  out += "]";
  if (r.circulated) {
    std::snprintf(buf, sizeof buf, " circ=S%u", *r.circulated);
    out += buf;
  }
  out += " grants=[";
  for (const SlotId s : r.grants) {
    std::snprintf(buf, sizeof buf, "S%u ", s);
    out += buf;
  }
  if (!r.grants.empty()) out.pop_back();
  out += "] drops=[";
  for (const SlotId s : r.drops) {
    std::snprintf(buf, sizeof buf, "S%u ", s);
    out += buf;
  }
  if (!r.drops.empty()) out.pop_back();
  std::snprintf(buf, sizeof buf, "] (%llu cyc)\n",
                static_cast<unsigned long long>(r.hw_cycles));
  out += buf;
  return out;
}

std::string Tracer::render_all() const {
  std::string out;
  for (const TraceRecord& r : records_) out += render(r);
  return out;
}

std::string Tracer::to_chrome_json() const {
  std::string out =
      "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"ts\":0,"
      "\"name\":\"process_name\",\"args\":{\"name\":\"ss chip\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"ts\":0,"
      "\"name\":\"thread_name\",\"args\":{\"name\":\"decisions\"}}";
  char buf[192];
  // Decision cycles are placed end-to-end on a synthetic hw-cycle
  // timeline (1 cycle = 1 ns) so relative durations read correctly.
  std::uint64_t ts = 0;
  for (const TraceRecord& r : records_) {
    std::string ids;
    for (const SlotId s : r.grants) {
      std::snprintf(buf, sizeof buf, "S%u ", s);
      ids += buf;
    }
    if (!ids.empty()) ids.pop_back();
    const std::uint64_t dur = r.hw_cycles ? r.hw_cycles : 1;
    std::snprintf(buf, sizeof buf,
                  ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"%s\",\"args\":{"
                  "\"decision_cycle\":%llu,\"vtime\":%llu,",
                  static_cast<double>(ts) / 1000.0,
                  static_cast<double>(dur) / 1000.0,
                  r.idle ? "idle" : "decision",
                  static_cast<unsigned long long>(r.decision_cycle),
                  static_cast<unsigned long long>(r.vtime_start));
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "\"grants\":\"%s\",\"drops\":%zu,\"circulated\":%d}}",
                  ids.c_str(), r.drops.size(),
                  r.circulated ? static_cast<int>(*r.circulated) : -1);
    out += buf;
    ts += dur;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace ss::hw
