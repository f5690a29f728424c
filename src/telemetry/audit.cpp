#include "telemetry/audit.hpp"

#include <cassert>
#include <cstdio>

#include "util/json.hpp"

namespace ss::telemetry {

namespace {

constexpr std::memory_order kRel = std::memory_order_relaxed;

using util::append_u64;

}  // namespace

const char* burn_cause_name(std::size_t cause) noexcept {
  switch (cause) {
    case 0: return "lost_tiebreak";
    case 1: return "fault_stall";
    case 2: return "queue_overflow";
    case 3: return "unattributed";
    default: return "unknown";
  }
}

DecisionAudit::DecisionAudit(std::uint32_t streams)
    : streams_(streams > kAuditMaxStreams
                   ? static_cast<std::uint32_t>(kAuditMaxStreams)
                   : streams) {
  cycle_lost_rule_.fill(kNoLoss);
}

void DecisionAudit::on_comparison_sampled(std::uint32_t winner,
                                          std::uint32_t loser,
                                          std::uint8_t rule) noexcept {
  // Sampled cycles tally comparisons here (committed at end_decision);
  // unsampled cycles get the same exact total via add_comparisons.
  ++cycle_comparisons_;
  ++cycle_rules_[rule];
  single_writer_add(per_stream_[winner].wins[rule]);
  single_writer_add(per_stream_[loser].losses[rule]);
  single_writer_add(rule_total_[rule]);
  single_writer_add(comparisons_sampled_);
  if (rule_counters_[rule] != nullptr) rule_counters_[rule]->add(1);
}

void DecisionAudit::add_comparisons(std::uint64_t n) noexcept {
  if (n == 0) return;
  single_writer_add(comparisons_, n);
  if (comparison_counter_ != nullptr) comparison_counter_->add(n);
}

void DecisionAudit::on_violation(std::uint32_t stream) noexcept {
  if (stream >= kAuditMaxStreams) return;
  PerStream& ps = per_stream_[stream];
  single_writer_add(ps.violations);

  // Attribution precedence: a fault episode explains every violation in
  // its decision; overflow is a per-stream one-shot flag; otherwise the
  // last rule the stream lost on this cycle is the cause.
  BurnCause cause = BurnCause::kUnattributed;
  if (cycle_faults_.load(kRel) > 0) {
    cause = BurnCause::kFaultStall;
  } else if (ps.overflow_pending.load(kRel) > 0) {
    ps.overflow_pending.fetch_sub(1, kRel);
    cause = BurnCause::kQueueOverflow;
  } else if (cycle_lost_rule_[stream] != kNoLoss) {
    cause = BurnCause::kLostTiebreak;
    single_writer_add(ps.burn_rule[cycle_lost_rule_[stream]]);
  } else if ((cycle_losers_ >> stream) & 1u) {
    // Unsampled cycle: the comparison callback did not run, but the chip
    // reported the stream contended and lost — the cause stays exact,
    // only the per-rule detail is missing.
    cause = BurnCause::kLostTiebreak;
  }
  single_writer_add(ps.burn[static_cast<std::size_t>(cause)]);
  if (violation_counter_ != nullptr) {
    violation_counter_->add(1);
    burn_counters_[static_cast<std::size_t>(cause)]->add(1);
  }
}

void DecisionAudit::end_decision() noexcept {
  // cycle_comparisons_/cycle_rules_ only advance on sampled cycles, so
  // the commit-and-clear is skipped entirely on the (dominant) unsampled
  // path; the last-lost bytes are written at every rate and always clear.
  if (cycle_comparisons_ != 0) {
    single_writer_add(comparisons_, cycle_comparisons_);
    if (comparison_counter_ != nullptr) {
      comparison_counter_->add(cycle_comparisons_);
    }
    cycle_comparisons_ = 0;
    cycle_rules_.fill(0);
  }
  cycle_lost_rule_.fill(kNoLoss);
  cycle_losers_ = 0;
  cycle_faults_.store(0, kRel);
}

void DecisionAudit::note_fault() noexcept {
  cycle_faults_.fetch_add(1, kRel);
}

void DecisionAudit::note_overflow(std::uint32_t stream) noexcept {
  if (stream >= kAuditMaxStreams) return;
  per_stream_[stream].overflow_pending.fetch_add(1, kRel);
}

void DecisionAudit::bind_registry(MetricsRegistry& reg) {
  comparison_counter_ = &reg.counter("audit.comparisons");
  for (std::size_t r = 0; r < kAuditRules; ++r) {
    rule_counters_[r] =
        &reg.counter(std::string("audit.rule.") + audit_rule_name(r));
  }
  for (std::size_t c = 0; c < kBurnCauses; ++c) {
    burn_counters_[c] =
        &reg.counter(std::string("audit.burn.") + burn_cause_name(c));
  }
  violation_counter_ = &reg.counter("audit.violations");
}

std::uint64_t DecisionAudit::comparisons() const noexcept {
  return comparisons_.load(kRel);
}

std::uint64_t DecisionAudit::comparisons_sampled() const noexcept {
  return comparisons_sampled_.load(kRel);
}

std::uint64_t DecisionAudit::rule_total(std::size_t rule) const noexcept {
  return rule < kAuditRules ? rule_total_[rule].load(kRel) : 0;
}

std::uint64_t DecisionAudit::wins(std::uint32_t stream,
                                  std::size_t rule) const noexcept {
  if (stream >= kAuditMaxStreams || rule >= kAuditRules) return 0;
  return per_stream_[stream].wins[rule].load(kRel);
}

std::uint64_t DecisionAudit::losses(std::uint32_t stream,
                                    std::size_t rule) const noexcept {
  if (stream >= kAuditMaxStreams || rule >= kAuditRules) return 0;
  return per_stream_[stream].losses[rule].load(kRel);
}

std::uint64_t DecisionAudit::violations(std::uint32_t stream) const noexcept {
  if (stream >= kAuditMaxStreams) return 0;
  return per_stream_[stream].violations.load(kRel);
}

std::uint64_t DecisionAudit::burn(std::uint32_t stream,
                                  std::size_t cause) const noexcept {
  if (stream >= kAuditMaxStreams || cause >= kBurnCauses) return 0;
  return per_stream_[stream].burn[cause].load(kRel);
}

std::uint64_t DecisionAudit::burn_rule(std::uint32_t stream,
                                       std::size_t rule) const noexcept {
  if (stream >= kAuditMaxStreams || rule >= kAuditRules) return 0;
  return per_stream_[stream].burn_rule[rule].load(kRel);
}

void DecisionAudit::cycle_rules(
    std::array<std::uint16_t, kAuditRules>& out) const noexcept {
  out = cycle_rules_;
}

// ---------------------------------------------------------------------------

AuditSession::AuditSession(std::uint32_t streams, std::size_t ring_capacity)
    : audit_(streams), recorder_(ring_capacity) {}

void AuditSession::set_health(std::uint8_t state) noexcept {
  health_.store(state, std::memory_order_relaxed);
}

void AuditSession::note_fault(FaultSite site) noexcept {
  faults_[static_cast<std::size_t>(site)].fetch_add(
      1, std::memory_order_relaxed);
  audit_.note_fault();
  // Always-sample override: the decision a fault lands in (the stalled
  // attempt retries, so the tick after this) gets full provenance.
  sampler_.force_next();
}

std::uint64_t AuditSession::faults_total() const noexcept {
  std::uint64_t n = 0;
  for (const auto& f : faults_) n += f.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t AuditSession::faults(FaultSite site) const noexcept {
  return faults_[static_cast<std::size_t>(site)].load(
      std::memory_order_relaxed);
}

void AuditSession::begin_run() noexcept { audit_.end_decision(); }

void AuditSession::on_violation(std::uint32_t stream) noexcept {
  if (stream >= audit_.streams()) return;
  audit_.on_violation(stream);
  // Always-sample override: a decision that burned budget makes the next
  // one land in the flight recorder with full provenance.
  sampler_.force_next();
}

void AuditSession::on_decision(DecisionRecord& rec) {
  rec.health = health_.load(std::memory_order_relaxed);
  rec.faults = faults_total();
  audit_.cycle_rules(rec.rules);
  recorder_.record(rec);
  audit_.end_decision();
}

void AuditSession::on_decision_lite(std::uint64_t comparisons) {
  audit_.add_comparisons(comparisons);
  audit_.end_decision();
}

void AuditSession::set_watchdog_context(std::string json_object) {
  const std::lock_guard<std::mutex> lock(mu_);
  watchdog_context_ = std::move(json_object);
}

std::string AuditSession::to_json() const {
  // Scale that turns a sampled tally into an estimate of the full one;
  // 1.0 when the sampler never ran (standalone sessions, full audit).
  const double scale = sampler_.scale();
  const auto append_scaled = [&](std::string& s, std::uint64_t v) {
    append_u64(s, static_cast<std::uint64_t>(static_cast<double>(v) * scale +
                                             0.5));
  };

  std::string out;
  out.reserve(4096);
  out += "{\"streams\":";
  append_u64(out, audit_.streams());
  out += ",\"decisions\":";
  append_u64(out, recorder_.recorded());
  out += ",\"comparisons\":";
  append_u64(out, audit_.comparisons());
  out += ",\"comparisons_sampled\":";
  append_u64(out, audit_.comparisons_sampled());

  out += ",\"sampling\":{\"every\":";
  append_u64(out, sampler_.every());
  out += ",\"phase\":";
  append_u64(out, sampler_.phase());
  out += ",\"seed\":";
  append_u64(out, sampler_.seed());
  out += ",\"decisions\":";
  append_u64(out, sampler_.decisions());
  out += ",\"sampled\":";
  append_u64(out, sampler_.sampled());
  out += ",\"forced\":";
  append_u64(out, sampler_.forced());
  char scale_buf[40];
  std::snprintf(scale_buf, sizeof scale_buf, ",\"scale\":%.6g}", scale);
  out += scale_buf;

  // "rules" carries the raw sampled tallies; "rules_est" the scaled
  // estimates of the full-rate profile.  Identical when every == 1.
  out += ",\"rules\":{";
  bool first = true;
  for (std::size_t r = 0; r < kAuditRules; ++r) {
    const std::uint64_t v = audit_.rule_total(r);
    if (v == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += audit_rule_name(r);
    out += "\":";
    append_u64(out, v);
  }
  out += "},\"rules_est\":{";
  first = true;
  for (std::size_t r = 0; r < kAuditRules; ++r) {
    const std::uint64_t v = audit_.rule_total(r);
    if (v == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += audit_rule_name(r);
    out += "\":";
    append_scaled(out, v);
  }
  out += "}";

  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!watchdog_context_.empty()) {
      out += ",\"watchdog\":";
      out += watchdog_context_;
    }
  }

  out += ",\"health\":";
  append_u64(out, health_.load(std::memory_order_relaxed));
  out += ",\"faults\":{\"pci\":";
  append_u64(out, faults(FaultSite::kPci));
  out += ",\"sram\":";
  append_u64(out, faults(FaultSite::kSram));
  out += ",\"chip\":";
  append_u64(out, faults(FaultSite::kChip));
  out += ",\"total\":";
  append_u64(out, faults_total());
  out += "}";

  out += ",\"stream_profiles\":[";
  for (std::uint32_t s = 0; s < audit_.streams(); ++s) {
    if (s) out += ",";
    out += "{\"id\":";
    append_u64(out, s);
    auto rule_map = [&](const char* key, auto getter) {
      out += ",\"";
      out += key;
      out += "\":{";
      bool f = true;
      for (std::size_t r = 0; r < kAuditRules; ++r) {
        const std::uint64_t v = getter(r);
        if (v == 0) continue;
        if (!f) out += ",";
        f = false;
        out += "\"";
        out += audit_rule_name(r);
        out += "\":";
        append_u64(out, v);
      }
      out += "}";
    };
    rule_map("wins", [&](std::size_t r) { return audit_.wins(s, r); });
    rule_map("losses", [&](std::size_t r) { return audit_.losses(s, r); });
    rule_map("burn_rules",
             [&](std::size_t r) { return audit_.burn_rule(s, r); });
    out += ",\"violations\":";
    append_u64(out, audit_.violations(s));
    out += ",\"burn\":{";
    bool f = true;
    for (std::size_t c = 0; c < kBurnCauses; ++c) {
      const std::uint64_t v = audit_.burn(s, c);
      if (v == 0) continue;
      if (!f) out += ",";
      f = false;
      out += "\"";
      out += burn_cause_name(c);
      out += "\":";
      append_u64(out, v);
    }
    out += "}}";
  }
  out += "]";

  out += ",\"ring\":";
  out += recorder_.to_json();
  out += "}";
  return out;
}

void AuditSession::set_dump_sink(DumpSink sink) {
  const std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

void AuditSession::dump(const std::string& cause) {
  Dump d{cause, to_json()};
  const std::lock_guard<std::mutex> lock(mu_);
  last_dump_ = std::move(d);
  if (sink_) sink_(*last_dump_);
}

std::optional<AuditSession::Dump> AuditSession::last_dump() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return last_dump_;
}

}  // namespace ss::telemetry
