#include "telemetry/report.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace ss::telemetry {

namespace {

using ss::util::JsonValue;

/// Eight-level unicode sparkline scaled by the series max.
std::string sparkline(const std::vector<double>& v) {
  static const char* kLevels[8] = {"▁", "▂", "▃", "▄",
                                   "▅", "▆", "▇", "█"};
  double max = 0.0;
  for (const double x : v) max = std::max(max, x);
  std::string out;
  for (const double x : v) {
    int lvl = 0;
    if (max > 0.0 && x > 0.0) {
      lvl = static_cast<int>(x / max * 7.0 + 0.5);
      lvl = std::clamp(lvl, 0, 7);
    }
    out += kLevels[lvl];
  }
  return out;
}

std::vector<double> num_array(const JsonValue* v) {
  std::vector<double> out;
  if (v != nullptr && v->is_array()) {
    out.reserve(v->as_array().size());
    for (const JsonValue& e : v->as_array()) out.push_back(e.as_num());
  }
  return out;
}

char* fmt(char* buf, std::size_t n, const char* f, ...)
    __attribute__((format(printf, 3, 4)));
char* fmt(char* buf, std::size_t n, const char* f, ...) {
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, n, f, ap);
  va_end(ap);
  return buf;
}

}  // namespace

Report build_report(const std::string& path) {
  Report rep;
  const std::optional<JsonValue> doc = ss::util::parse_json_file(path);
  if (!doc || doc->str_at("schema") != "ss-run-v1") return rep;
  rep.loaded = true;
  const JsonValue* const metrics = doc->find("metrics");
  const JsonValue* const audit = doc->find("audit");
  const JsonValue* const profile = doc->find("profile");
  const JsonValue* const ts = doc->find("timeseries");

  // Counter rate series (timeseries section): name -> {cum, mean/max rate,
  // rate vector for the sparkline}.  Kept for counters that moved.
  struct RateRow {
    std::string name;
    double cum = 0.0, mean = 0.0, max = 0.0;
    std::vector<double> rates;
  };
  std::vector<RateRow> rates;
  std::vector<double> t_ns;
  std::vector<std::uint64_t> firing_t_ns;
  if (ts) {
    t_ns = num_array(ts->find("t_ns"));
    if (const JsonValue* cs = ts->find("counters"); cs && cs->is_object()) {
      for (const auto& [name, series] : cs->as_object()) {
        RateRow row;
        row.name = name;
        row.rates = num_array(series.find("rate_per_s"));
        const std::vector<double> cum = num_array(series.find("cum"));
        row.cum = cum.empty() ? 0.0 : cum.back();
        double sum = 0.0;
        for (const double r : row.rates) {
          sum += r;
          row.max = std::max(row.max, r);
        }
        row.mean = row.rates.empty() ? 0.0 : sum / row.rates.size();
        if (row.max > 0.0) rates.push_back(std::move(row));
        // Watchdog firings localized to their interval.
        if (name == "watchdog.fired") {
          const std::vector<double> delta = num_array(series.find("delta"));
          for (std::size_t k = 0; k < delta.size() && k < t_ns.size(); ++k) {
            if (delta[k] > 0.0) {
              firing_t_ns.push_back(static_cast<std::uint64_t>(t_ns[k]));
            }
          }
        }
      }
    }
    std::sort(rates.begin(), rates.end(),
              [](const RateRow& a, const RateRow& b) { return a.cum > b.cum; });
    if (rates.size() > 8) rates.resize(8);  // top movers only
  }

  // Delay (and any other) histograms from the metrics section.
  struct DelayRow {
    std::string name;
    double count = 0.0, p50 = 0.0, p90 = 0.0, p99 = 0.0;
    std::vector<double> interval_p99;  // from the timeseries section
  };
  std::vector<DelayRow> delays;
  if (metrics) {
    if (const JsonValue* hs = metrics->find("histograms");
        hs && hs->is_object()) {
      for (const auto& [name, h] : hs->as_object()) {
        if (h.num_at("count") <= 0.0) continue;
        DelayRow row;
        row.name = name;
        row.count = h.num_at("count");
        row.p50 = h.num_at("p50");
        row.p90 = h.num_at("p90");
        row.p99 = h.num_at("p99");
        if (ts) {
          if (const JsonValue* th = ts->find("histograms");
              th && th->is_object()) {
            if (const JsonValue* series = th->find(name)) {
              row.interval_p99 = num_array(series->find("p99"));
            }
          }
        }
        delays.push_back(std::move(row));
      }
    }
  }

  // Burn attribution: audit stream_profiles summed per cause, falling
  // back to the registry's audit.burn.* counters.
  std::map<std::string, double> burn;
  if (audit) {
    if (const JsonValue* profiles = audit->find("stream_profiles");
        profiles && profiles->is_array()) {
      for (const JsonValue& sp : profiles->as_array()) {
        if (const JsonValue* b = sp.find("burn"); b && b->is_object()) {
          for (const auto& [cause, n] : b->as_object()) {
            burn[cause] += n.as_num();
          }
        }
      }
    }
  }
  if (burn.empty() && metrics) {
    if (const JsonValue* cs = metrics->find("counters");
        cs && cs->is_object()) {
      for (const auto& [name, n] : cs->as_object()) {
        if (name.rfind("audit.burn.", 0) == 0 && n.as_num() > 0.0) {
          burn[name.substr(sizeof "audit.burn." - 1)] += n.as_num();
        }
      }
    }
  }
  std::vector<std::pair<std::string, double>> burn_rows(burn.begin(),
                                                        burn.end());
  std::sort(burn_rows.begin(), burn_rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  double burn_total = 0.0;
  for (const auto& [cause, n] : burn_rows) burn_total += n;

  // Profiler stages by share.
  struct StageRow {
    std::string name;
    double share_pct = 0.0, self_ns = 0.0;
  };
  std::vector<StageRow> stages;
  double profile_total_ns = 0.0;
  if (profile) {
    profile_total_ns = profile->num_at("total_ns");
    if (const JsonValue* ss = profile->find("stages"); ss && ss->is_array()) {
      for (const JsonValue& st : ss->as_array()) {
        stages.push_back({st.str_at("name"), st.num_at("share_pct"),
                          st.num_at("self_ns")});
      }
    }
    std::sort(stages.begin(), stages.end(), [](const auto& a, const auto& b) {
      return a.share_pct > b.share_pct;
    });
  }

  // Watchdog totals + firing context.
  double wd_polls = 0.0, wd_fired = 0.0;
  if (metrics) {
    if (const JsonValue* cs = metrics->find("counters");
        cs && cs->is_object()) {
      wd_polls = cs->num_at("watchdog.polls");
      wd_fired = cs->num_at("watchdog.fired");
    }
  }
  const JsonValue* wd_ctx = audit ? audit->find("watchdog") : nullptr;

  std::string t;
  char buf[1024];  // a full 256-interval sparkline is 768 bytes
  t += "ShareStreams run report\n";
  t += "=======================\n";
  t += fmt(buf, sizeof buf,
           "sections: metrics %s  audit %s  profile %s  timeseries %s\n",
           metrics ? "yes" : "-", audit ? "yes" : "-", profile ? "yes" : "-",
           ts ? "yes" : "-");
  if (ts) {
    t += fmt(buf, sizeof buf,
             "run: %.3f ms wall, %lld interval(s) sampled (%.1f ms cadence)\n",
             (t_ns.empty() ? 0.0 : t_ns.back()) / 1e6,
             static_cast<long long>(ts->num_at("intervals")),
             ts->num_at("interval_ns") / 1e6);
  }
  if (!rates.empty()) {
    t += "\nrates (per second over the retained intervals):\n";
    for (const RateRow& r : rates) {
      t += fmt(buf, sizeof buf, "  %-24s %s  cum %lld  mean %.4g  max %.4g\n",
               r.name.c_str(), sparkline(r.rates).c_str(),
               static_cast<long long>(r.cum), r.mean, r.max);
    }
  }
  if (!delays.empty()) {
    t += "\nlatency histograms:\n";
    for (const DelayRow& d : delays) {
      t += fmt(buf, sizeof buf,
               "  %-24s n=%lld p50 %.4g  p90 %.4g  p99 %.4g\n",
               d.name.c_str(), static_cast<long long>(d.count), d.p50, d.p90,
               d.p99);
      if (!d.interval_p99.empty()) {
        t += fmt(buf, sizeof buf, "  %-24s %s  (interval p99)\n", "",
                 sparkline(d.interval_p99).c_str());
      }
    }
  }
  if (!burn_rows.empty()) {
    t += fmt(buf, sizeof buf,
             "\ntop burn causes (%lld violations attributed):\n",
             static_cast<long long>(burn_total));
    for (const auto& [cause, n] : burn_rows) {
      t += fmt(buf, sizeof buf, "  %-24s %lld\n", cause.c_str(),
               static_cast<long long>(n));
    }
  }
  if (profile) {
    t += fmt(buf, sizeof buf, "\nprofiler (%.3f ms root wall time):\n",
             profile_total_ns / 1e6);
    for (const StageRow& s : stages) {
      const int bars = std::clamp(static_cast<int>(s.share_pct / 4.0), 0, 25);
      t += fmt(buf, sizeof buf, "  %-18s %5.1f%%  self %.6g ns  %s\n",
               s.name.c_str(), s.share_pct, s.self_ns,
               std::string(bars, '#').c_str());
    }
  }
  if (metrics || wd_ctx != nullptr) {
    t += fmt(buf, sizeof buf, "\nwatchdog: %lld poll(s), %lld fired\n",
             static_cast<long long>(wd_polls),
             static_cast<long long>(wd_fired));
    if (wd_ctx != nullptr) {
      t += fmt(buf, sizeof buf,
               "  %s detail=%s value=%.6g threshold=%.6g window_polls=%lld\n",
               wd_ctx->str_at("rule").c_str(),
               wd_ctx->str_at("detail").c_str(), wd_ctx->num_at("value"),
               wd_ctx->num_at("threshold"),
               static_cast<long long>(wd_ctx->num_at("window_polls")));
    }
    for (const std::uint64_t at : firing_t_ns) {
      t += fmt(buf, sizeof buf, "  fired inside interval ending t=%.3f ms\n",
               static_cast<double>(at) / 1e6);
    }
  }
  if (audit) {
    t += fmt(buf, sizeof buf,
             "\naudit: cause=%s decisions=%lld comparisons=%lld health=%lld\n",
             doc->str_at("cause").c_str(),
             static_cast<long long>(audit->num_at("decisions")),
             static_cast<long long>(audit->num_at("comparisons")),
             static_cast<long long>(audit->num_at("health")));
  }
  rep.text = std::move(t);
  return rep;
}

}  // namespace ss::telemetry
