#include "telemetry/frame_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

namespace ss::telemetry {

namespace {

// Stage track ids under pid 1 (stable so two traces diff cleanly).
constexpr int kPidStages = 1;
constexpr int kPidStreams = 2;

int stage_tid(std::uint8_t kind) { return static_cast<int>(kind) + 1; }

const char* stage_name(std::uint8_t kind) {
  switch (kind) {
    case 0: return "arrival";
    case 1: return "enqueue";
    case 2: return "grant";
    case 3: return "pci";
    case 4: return "transmit";
    default: return "drop";
  }
}

const char* pci_dir_name(std::uint8_t dir) {
  return dir == 0 ? "pio_write" : "pio_read";
}

void append_ts(std::string& out, std::uint64_t ns) {
  char buf[40];
  // Trace-event timestamps are microseconds; keep ns precision.
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1000.0);
  out += buf;
}

std::uint64_t frame_uid(std::uint32_t stream, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(stream) << 40) |
         (seq & ((std::uint64_t{1} << 40) - 1));
}

}  // namespace

FrameTrace::FrameTrace(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void FrameTrace::push(const Event& e) {
  const std::lock_guard<std::mutex> lock(mu_);
  ring_[head_] = e;
  head_ = (head_ + 1) % ring_.size();
  if (count_ < ring_.size()) {
    ++count_;
  } else {
    // The wrap silently evicted the oldest event: count it so the
    // truncation is visible in the export and the metrics snapshot.
    ++dropped_;
    if (dropped_counter_ != nullptr) dropped_counter_->add(1);
  }
  ++recorded_;
}

void FrameTrace::arrival(std::uint32_t stream, std::uint64_t seq,
                         std::uint64_t ts_ns) {
  Event e{};
  e.kind = Kind::kArrival;
  e.stream = stream;
  e.seq = seq;
  e.ts_ns = ts_ns;
  push(e);
}

void FrameTrace::enqueue(std::uint32_t stream, std::uint64_t seq,
                         std::uint64_t ts_ns) {
  Event e{};
  e.kind = Kind::kEnqueue;
  e.stream = stream;
  e.seq = seq;
  e.ts_ns = ts_ns;
  push(e);
}

void FrameTrace::grant(std::uint32_t stream, std::uint64_t seq,
                       std::uint64_t ts_ns, std::uint64_t decision_cycle,
                       std::uint32_t batch_index) {
  Event e{};
  e.kind = Kind::kGrant;
  e.stream = stream;
  e.seq = seq;
  e.ts_ns = ts_ns;
  e.decision = decision_cycle;
  e.batch_index = batch_index;
  push(e);
}

void FrameTrace::pci(PciDir dir, std::uint64_t ts_ns, std::uint64_t dur_ns,
                     std::uint32_t bytes) {
  Event e{};
  e.kind = Kind::kPci;
  e.pci_dir = static_cast<std::uint8_t>(dir);
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.bytes = bytes;
  push(e);
}

void FrameTrace::transmit(std::uint32_t stream, std::uint64_t seq,
                          std::uint64_t start_ns, std::uint64_t dur_ns,
                          std::uint32_t bytes) {
  Event e{};
  e.kind = Kind::kTransmit;
  e.stream = stream;
  e.seq = seq;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns;
  e.bytes = bytes;
  push(e);
}

void FrameTrace::drop(std::uint32_t stream, std::uint64_t seq,
                      std::uint64_t ts_ns) {
  Event e{};
  e.kind = Kind::kDrop;
  e.stream = stream;
  e.seq = seq;
  e.ts_ns = ts_ns;
  push(e);
}

std::size_t FrameTrace::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::uint64_t FrameTrace::recorded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::uint64_t FrameTrace::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void FrameTrace::bind_registry(MetricsRegistry& reg) {
  Counter& c = reg.counter("telemetry.trace.dropped_events");
  const std::lock_guard<std::mutex> lock(mu_);
  dropped_counter_ = &c;
}

void FrameTrace::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  head_ = 0;
  count_ = 0;
  recorded_ = 0;
  dropped_ = 0;
}

std::string FrameTrace::to_chrome_json() const {
  // Copy the retained window in chronological order, then render without
  // holding the lock.
  std::vector<Event> events;
  std::uint64_t dropped = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    events.reserve(count_);
    const std::size_t start = (head_ + ring_.size() - count_) % ring_.size();
    for (std::size_t i = 0; i < count_; ++i) {
      events.push_back(ring_[(start + i) % ring_.size()]);
    }
    dropped = dropped_;
  }

  std::set<std::uint32_t> streams;
  for (const Event& e : events) {
    if (e.kind != Kind::kPci) streams.insert(e.stream);
  }

  std::string out;
  out.reserve(events.size() * 160 + 1024);
  out += "{\"displayTimeUnit\":\"ns\",\"metadata\":{\"dropped\":";
  {
    char nbuf[24];
    std::snprintf(nbuf, sizeof nbuf, "%llu",
                  static_cast<unsigned long long>(dropped));
    out += nbuf;
  }
  out += "},\"traceEvents\":[\n";
  char buf[256];

  auto meta = [&](int pid, int tid, const char* what, const std::string& nm) {
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"ts\":0,\"name\":"
                  "\"%s\",\"args\":{\"name\":\"%s\"}},\n",
                  pid, tid, what, nm.c_str());
    out += buf;
  };
  meta(kPidStages, 0, "process_name", "ss pipeline stages");
  for (std::uint8_t k = 0; k <= 5; ++k) {
    meta(kPidStages, stage_tid(k), "thread_name", stage_name(k));
  }
  meta(kPidStreams, 0, "process_name", "ss streams");
  for (const std::uint32_t s : streams) {
    meta(kPidStreams, static_cast<int>(s) + 1, "thread_name",
         "stream " + std::to_string(s));
  }

  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  for (const Event& e : events) {
    const auto kind = static_cast<std::uint8_t>(e.kind);
    // --- stage track (pid 1) ---
    sep();
    if (e.kind == Kind::kPci) {
      std::snprintf(buf, sizeof buf,
                    "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\","
                    "\"ts\":",
                    kPidStages, stage_tid(kind), pci_dir_name(e.pci_dir));
      out += buf;
      append_ts(out, e.ts_ns);
      out += ",\"dur\":";
      append_ts(out, std::max<std::uint64_t>(e.dur_ns, 1));
      std::snprintf(buf, sizeof buf, ",\"args\":{\"bytes\":%u}}", e.bytes);
      out += buf;
    } else if (e.kind == Kind::kTransmit) {
      std::snprintf(buf, sizeof buf,
                    "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"name\":"
                    "\"tx S%u\",\"ts\":",
                    kPidStages, stage_tid(kind), e.stream);
      out += buf;
      append_ts(out, e.ts_ns);
      out += ",\"dur\":";
      append_ts(out, std::max<std::uint64_t>(e.dur_ns, 1));
      std::snprintf(buf, sizeof buf,
                    ",\"args\":{\"stream\":%u,\"seq\":%llu,\"bytes\":%u}}",
                    e.stream, static_cast<unsigned long long>(e.seq),
                    e.bytes);
      out += buf;
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,"
                    "\"name\":\"%s S%u\",\"ts\":",
                    kPidStages, stage_tid(kind), stage_name(kind), e.stream);
      out += buf;
      append_ts(out, e.ts_ns);
      if (e.kind == Kind::kGrant) {
        std::snprintf(buf, sizeof buf,
                      ",\"args\":{\"stream\":%u,\"seq\":%llu,\"decision\":"
                      "%llu,\"batch_index\":%u}}",
                      e.stream, static_cast<unsigned long long>(e.seq),
                      static_cast<unsigned long long>(e.decision),
                      e.batch_index);
      } else {
        std::snprintf(buf, sizeof buf,
                      ",\"args\":{\"stream\":%u,\"seq\":%llu}}", e.stream,
                      static_cast<unsigned long long>(e.seq));
      }
      out += buf;
    }

    // --- per-stream async frame span (pid 2) ---
    if (e.kind == Kind::kPci) continue;
    const char* ph = nullptr;
    std::uint64_t ts = e.ts_ns;
    switch (e.kind) {
      case Kind::kArrival: ph = "b"; break;
      case Kind::kEnqueue:
      case Kind::kGrant: ph = "n"; break;
      case Kind::kTransmit:
        ph = "e";
        ts = e.ts_ns + e.dur_ns;  // span closes when serialization ends
        break;
      case Kind::kDrop: ph = "e"; break;
      default: break;
    }
    if (!ph) continue;
    sep();
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"%s\",\"cat\":\"frame\",\"id\":\"0x%llx\","
                  "\"pid\":%d,\"tid\":%u,\"name\":\"S%u/f%llu\",\"ts\":",
                  ph, static_cast<unsigned long long>(
                          frame_uid(e.stream, e.seq)),
                  kPidStreams, e.stream + 1, e.stream,
                  static_cast<unsigned long long>(e.seq));
    out += buf;
    append_ts(out, ts);
    if (e.kind == Kind::kGrant) {
      std::snprintf(buf, sizeof buf,
                    ",\"args\":{\"stage\":\"grant\",\"decision\":%llu,"
                    "\"batch_index\":%u}}",
                    static_cast<unsigned long long>(e.decision),
                    e.batch_index);
      out += buf;
    } else if (e.kind == Kind::kEnqueue) {
      out += ",\"args\":{\"stage\":\"enqueue\"}}";
    } else if (e.kind == Kind::kDrop) {
      out += ",\"args\":{\"outcome\":\"dropped\"}}";
    } else {
      out += "}";
    }
  }
  out += "\n]}\n";
  return out;
}

bool FrameTrace::write_chrome_json(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << to_chrome_json();
  return static_cast<bool>(f);
}

}  // namespace ss::telemetry
