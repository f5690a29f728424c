#include "telemetry/observability.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <utility>

#include "util/json.hpp"

namespace ss::telemetry {

namespace {

// Where a watchdog or fault-plane run writes its run document when --out
// was not given.
constexpr const char* kDefaultRunPath = "ss_run.json";

struct PathFlag {
  const char* name;
  std::string ObservabilityOptions::*field;
};

constexpr PathFlag kPathFlags[] = {
    {"--out", &ObservabilityOptions::out},
    {"--trace-out", &ObservabilityOptions::trace_out},
};

/// One plane's section of the run document; an empty body leaves the
/// section out (the plane was not attached).
struct Section {
  const char* name;
  std::string body;
};

/// The ss-run-v1 layout (docs/formats.md): schema, cause, then each
/// attached plane's section, on one line.
bool write_run_document(const std::string& path, const std::string& cause,
                        std::span<const Section> sections) {
  std::string doc = "{\"schema\":\"ss-run-v1\",\"cause\":\"";
  util::json_escape_into(doc, cause);
  doc += '"';
  for (const Section& s : sections) {
    if (s.body.empty()) continue;
    doc += ",\"";
    doc += s.name;
    doc += "\":";
    doc += s.body;
  }
  doc += "}\n";
  std::ofstream f(path, std::ios::binary);
  f << doc;
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
  return pad + "[--out FILE] [--trace-out FILE] [--sample-every N]\n" + pad +
         "[--watchdog]\n";
}

Observability::Observability(ObservabilityOptions opts, std::uint32_t streams,
                             bool profiled, bool fault_plane)
    : opts_(std::move(opts)),
      registry_on_(!opts_.out.empty() || opts_.watchdog) {
  if (!opts_.trace_out.empty()) frame_trace_.emplace();
  if (!opts_.out.empty() && profiled) profiler_.emplace();
  if (registry_on_ || fault_plane) {
    if (opts_.out.empty()) opts_.out = kDefaultRunPath;
    audit_.emplace(streams);
    audit_->set_sampling(opts_.sample_every);
    // The black box reaches disk at the anomaly itself; finish() later
    // rewrites the whole document around the same audit section.
    audit_->set_dump_sink([path = opts_.out](const AuditSession::Dump& d) {
      const Section audit[] = {{"audit", d.section}};
      (void)write_run_document(path, d.cause, audit);
    });
  }
  // One interval sampler serves both consumers: the watchdog's rolling
  // rules and the run document's time-series section read the same rings.
  if (opts_.watchdog) watchdog_.emplace(timeseries_, audit());
}

MetricsRegistry* Observability::metrics() noexcept {
  return registry_on_ ? &registry_ : nullptr;
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
  if (registry_on_) timeseries_.start();
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
  if (!audit_) return ok;  // no --out, watchdog or fault plane: no document

  const std::optional<AuditSession::Dump> frozen = audit_->last_dump();
  const AuditSession::Dump box =
      frozen ? *frozen : AuditSession::Dump{"on_demand", audit_->to_json()};
  const Section sections[] = {
      {"metrics", registry_on_ ? registry_.to_json() : ""},
      {"audit", box.section},
      {"profile", profiler_ ? profiler_->to_json() : ""},
      {"timeseries", registry_on_ ? timeseries_.to_json() : ""},
  };
  if (!write_run_document(opts_.out, box.cause, sections)) {
    failed(opts_.out);
    return ok;
  }
  std::printf("audit: %llu comparisons (%llu with sampled provenance, "
              "1-in-%u) over %llu decisions\n",
              static_cast<unsigned long long>(audit_->audit().comparisons()),
              static_cast<unsigned long long>(
                  audit_->audit().comparisons_sampled()),
              audit_->sampler().every(),
              static_cast<unsigned long long>(audit_->sampler().decisions()));
  std::string names;
  for (const Section& s : sections) {
    if (s.body.empty()) continue;
    names += names.empty() ? "" : ", ";
    names += s.name;
  }
  std::printf("run document (cause \"%s\"; %s) -> %s\n", box.cause.c_str(),
              names.c_str(), opts_.out.c_str());
  return ok;
}

}  // namespace ss::telemetry
