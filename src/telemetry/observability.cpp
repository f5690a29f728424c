#include "telemetry/observability.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

namespace ss::telemetry {

namespace {

// Where a watchdog or fault-plane run dumps the audit when --audit-out
// was not given.
constexpr const char* kDefaultAuditDump = "ss_audit_dump.json";

struct PathFlag {
  const char* name;
  std::string ObservabilityOptions::*field;
};

constexpr PathFlag kPathFlags[] = {
    {"--metrics-json", &ObservabilityOptions::metrics_json},
    {"--trace-out", &ObservabilityOptions::trace_out},
    {"--audit-out", &ObservabilityOptions::audit_out},
    {"--profile-out", &ObservabilityOptions::profile_out},
    {"--timeseries-out", &ObservabilityOptions::timeseries_out},
};

bool write_text(const std::string& path, const std::string& body) {
  std::ofstream f(path);
  f << body;
  return static_cast<bool>(f);
}

}  // namespace

bool parse_count(const char* text, std::uint64_t& out) {
  const char* const end = text + std::strlen(text);
  const auto [p, ec] = std::from_chars(text, end, out);
  return text != end && ec == std::errc{} && p == end;
}

ObservabilityOptions::Flag ObservabilityOptions::take(int argc, char** argv,
                                                      int& i,
                                                      const char* prog) {
  const char* const flag = argv[i];
  if (std::strcmp(flag, "--watchdog") == 0) {
    watchdog = true;
    return Flag::kTaken;
  }
  std::string ObservabilityOptions::*field = nullptr;
  for (const PathFlag& p : kPathFlags) {
    if (std::strcmp(flag, p.name) == 0) field = p.field;
  }
  if (field == nullptr && std::strcmp(flag, "--sample-every") != 0) {
    return Flag::kOther;
  }
  if (i + 1 >= argc || argv[i + 1][0] == '\0') {
    std::fprintf(stderr, "%s: %s needs a value\n", prog, flag);
    return Flag::kBad;
  }
  const char* const value = argv[++i];
  if (field != nullptr) {
    this->*field = value;
    return Flag::kTaken;
  }
  std::uint64_t n = 0;
  if (!parse_count(value, n) ||
      n > std::numeric_limits<std::uint32_t>::max()) {
    std::fprintf(stderr, "%s: %s takes a decision count, not '%s'\n", prog,
                 flag, value);
    return Flag::kBad;
  }
  sample_every = static_cast<std::uint32_t>(n);
  return Flag::kTaken;
}

std::string ObservabilityOptions::usage(int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  return pad +
         "[--metrics-json FILE] [--trace-out FILE] [--audit-out FILE]\n" +
         pad + "[--profile-out FILE] [--timeseries-out FILE]\n" + pad +
         "[--sample-every N] [--watchdog]\n";
}

Observability::Observability(ObservabilityOptions opts, std::uint32_t streams,
                             bool fault_plane)
    : opts_(std::move(opts)) {
  if (opts_.audit_out.empty() && (opts_.watchdog || fault_plane)) {
    opts_.audit_out = kDefaultAuditDump;
  }
  if (!opts_.trace_out.empty()) frame_trace_.emplace();
  if (!opts_.profile_out.empty()) profiler_.emplace();
  if (!opts_.audit_out.empty()) {
    audit_.emplace(streams);
    audit_->set_dump_path(opts_.audit_out);
    audit_->set_sampling(opts_.sample_every);
  }
  // One interval sampler serves both consumers: the watchdog's rolling
  // rules and the --timeseries-out export read the same rings.
  if (opts_.watchdog) watchdog_.emplace(timeseries_, audit());
}

MetricsRegistry* Observability::metrics() noexcept {
  const bool wanted = !opts_.metrics_json.empty() ||
                      !opts_.timeseries_out.empty() || opts_.watchdog;
  return wanted ? &registry_ : nullptr;
}

FrameTrace* Observability::frame_trace() noexcept {
  return frame_trace_ ? &*frame_trace_ : nullptr;
}

Profiler* Observability::profiler() noexcept {
  return profiler_ ? &*profiler_ : nullptr;
}

AuditSession* Observability::audit() noexcept {
  return audit_ ? &*audit_ : nullptr;
}

void Observability::start() {
  sampling_ = !opts_.timeseries_out.empty() || opts_.watchdog;
  if (sampling_) timeseries_.start();
}

bool Observability::finish(const char* prog) {
  timeseries_.stop();  // no-op unless start() ran
  bool ok = true;
  const auto failed = [&](const std::string& path) {
    std::fprintf(stderr, "%s: cannot write %s\n", prog, path.c_str());
    ok = false;
  };
  if (watchdog_) {
    const bool fired = watchdog_->fired() > 0;
    std::printf("watchdog: %llu polls, %llu rule firings%s%s\n",
                static_cast<unsigned long long>(watchdog_->polls()),
                static_cast<unsigned long long>(watchdog_->fired()),
                fired ? ", last rule " : "",
                fired ? watchdog_->last_rule().c_str() : "");
  }
  if (const std::string& path = opts_.metrics_json; !path.empty()) {
    if (write_text(path, registry_.to_json() + "\n")) {
      std::printf("metrics snapshot (%zu metrics) -> %s\n", registry_.size(),
                  path.c_str());
    } else {
      failed(path);
    }
  }
  if (frame_trace_) {
    if (frame_trace_->write_chrome_json(opts_.trace_out)) {
      std::printf("frame-lifecycle trace (%llu events) -> %s  "
                  "(load in ui.perfetto.dev)\n",
                  static_cast<unsigned long long>(frame_trace_->recorded()),
                  opts_.trace_out.c_str());
    } else {
      failed(opts_.trace_out);
    }
  }
  if (profiler_) {
    if (profiler_->write_json(opts_.profile_out)) {
      std::printf("profile: per-stage wall time (%s clock) -> %s\n",
                  Profiler::clock_name(), opts_.profile_out.c_str());
    } else {
      failed(opts_.profile_out);
    }
  }
  if (const std::string& path = opts_.timeseries_out; !path.empty()) {
    if (!timeseries_.write_json(path)) {
      failed(path);
    } else if (sampling_) {
      std::printf("time series: %zu interval(s) at %lld ms cadence -> %s\n",
                  timeseries_.size(),
                  static_cast<long long>(
                      timeseries_.config().poll_interval.count()),
                  path.c_str());
    } else {
      std::printf("time series: %zu interval(s) sampled by hand -> %s\n",
                  timeseries_.size(), path.c_str());
    }
  }
  if (audit_) {
    if (!audit_->dumped() && !audit_->dump("on_demand")) {
      failed(opts_.audit_out);
    } else {
      std::printf("audit: %llu comparisons (%llu with sampled provenance, "
                  "1-in-%u) over %llu decisions; flight recorder dump "
                  "(cause \"%s\") -> %s\n",
                  static_cast<unsigned long long>(
                      audit_->audit().comparisons()),
                  static_cast<unsigned long long>(
                      audit_->audit().comparisons_sampled()),
                  audit_->sampler().every(),
                  static_cast<unsigned long long>(
                      audit_->sampler().decisions()),
                  audit_->last_cause().c_str(), opts_.audit_out.c_str());
    }
  }
  return ok;
}

}  // namespace ss::telemetry
