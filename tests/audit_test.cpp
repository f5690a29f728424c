// audit_test.cpp — decision provenance, the flight recorder, and SLO burn
// attribution.
//
// Three layers of the observability contract:
//   1. PROVENANCE — the rule index the shuffle network reports for a
//      comparison must be the rule the independently written software
//      ordering (dwcs::precedes_explain) derives for the same attribute
//      pair, and the per-stream profiles must count every comparison.
//   2. OBSERVATION ONLY — attaching an AuditSession to a differential run
//      must not change a single grant: a >=10k-decision fuzz campaign
//      produces identical digests with auditing on and off.
//   3. THE BLACK BOX — a forced mid-run failover dumps an audit section
//      whose last recorded decision matches the software oracle's state at
//      the failover point, decision for decision, and under Observability
//      that section reaches the run document at the seam.
// The AuditStress suite additionally races a live to_json() exporter
// against the threaded endsystem (TSan job).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/endsystem.hpp"
#include "core/threaded_endsystem.hpp"
#include "dwcs/ordering.hpp"
#include "dwcs/reference_scheduler.hpp"
#include "hw/decision_block.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/observability.hpp"
#include "testing/differential_executor.hpp"
#include "testing/workload_fuzzer.hpp"
#include "util/json.hpp"

namespace ss {
namespace {

using telemetry::AuditSession;
using telemetry::BurnCause;
using telemetry::DecisionAudit;
using telemetry::DecisionRecord;
using telemetry::FlightRecorder;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---------------------------------------------------------------------------
// Flight recorder ring mechanics.

TEST(AuditFlightRecorder, RingWrapAndLast) {
  FlightRecorder fr(4);
  EXPECT_EQ(fr.capacity(), 4u);
  EXPECT_EQ(fr.size(), 0u);
  EXPECT_EQ(fr.last().decision, 0u) << "empty ring -> default record";

  for (std::uint64_t i = 0; i < 10; ++i) {
    DecisionRecord r;
    r.decision = i;
    r.vtime = 100 + i;
    fr.record(r);
  }
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.recorded(), 10u);
  EXPECT_EQ(fr.last().decision, 9u);

  // The retained window is the newest `capacity` records, oldest first.
  const std::vector<DecisionRecord> e = fr.entries();
  ASSERT_EQ(e.size(), 4u);
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_EQ(e[i].decision, 6 + i);
    EXPECT_EQ(e[i].vtime, 106 + i);
  }

  const std::string j = fr.to_json();
  EXPECT_NE(j.find("\"decision\":9"), std::string::npos);
  EXPECT_EQ(j.find("\"decision\":5"), std::string::npos)
      << "overwritten entry leaked into the export";
  EXPECT_EQ(j.find('\n'), std::string::npos) << "export is one line";

  fr.clear();
  EXPECT_EQ(fr.size(), 0u);
  EXPECT_EQ(fr.recorded(), 0u);
}

// ---------------------------------------------------------------------------
// Provenance: hardware rule == software rule, profiles count everything.

dwcs::StreamAttrs to_sw(const hw::AttrWord& w) {
  dwcs::StreamAttrs a;
  a.deadline = w.deadline.raw();
  a.loss_num = w.loss_num;
  a.loss_den = w.loss_den;
  a.arrival = w.arrival.raw();
  a.id = w.id;
  a.pending = w.pending;
  return a;
}

// For every random attribute pair within the 16-bit horizon, the rule the
// hardware comparator reports is the rule the software Table-2 ordering
// derives — the alignment the audit layer's static_asserts promise.
TEST(AuditProvenance, RuleAgreesWithSoftwareOrdering) {
  std::mt19937_64 rng(0xA0D17);
  // Small value ranges make every rule reachable (equal deadlines, zero
  // windows, equal arrivals) while staying far inside the wrap horizon.
  std::uniform_int_distribution<std::uint32_t> dl(0, 7);
  std::uniform_int_distribution<std::uint32_t> loss(0, 2);
  std::uniform_int_distribution<std::uint32_t> arr(0, 3);
  std::uniform_int_distribution<int> pend(0, 9);

  std::uint64_t rules_seen[telemetry::kAuditRules] = {};
  for (int iter = 0; iter < 200000; ++iter) {
    hw::AttrWord a, b;
    a.deadline = hw::Deadline{dl(rng)};
    a.loss_num = static_cast<hw::Loss>(loss(rng));
    a.loss_den = static_cast<hw::Loss>(loss(rng));
    a.arrival = hw::Arrival{arr(rng)};
    a.id = 3;
    a.pending = pend(rng) != 0;  // mostly pending
    b.deadline = hw::Deadline{dl(rng)};
    b.loss_num = static_cast<hw::Loss>(loss(rng));
    b.loss_den = static_cast<hw::Loss>(loss(rng));
    b.arrival = hw::Arrival{arr(rng)};
    b.id = 7;  // distinct IDs: hw (<=) and sw (<) tie-breaks coincide
    b.pending = pend(rng) != 0;
    if (!a.pending && !b.pending) continue;  // audit never records these

    const hw::DecisionResult hr = hw::decide(a, b, hw::ComparisonMode::kDwcsFull);
    const dwcs::OrderResult sr = dwcs::precedes_explain(to_sw(a), to_sw(b));
    ASSERT_EQ(hr.a_wins, sr.precedes)
        << "winner disagrees at iteration " << iter;
    ASSERT_EQ(static_cast<unsigned>(hr.rule), static_cast<unsigned>(sr.rule))
        << "rule disagrees at iteration " << iter << ": hw="
        << telemetry::audit_rule_name(static_cast<std::size_t>(hr.rule))
        << " sw="
        << telemetry::audit_rule_name(static_cast<std::size_t>(sr.rule));
    ++rules_seen[static_cast<std::size_t>(hr.rule)];
  }
  // The distribution must have exercised every rule path.
  for (std::size_t r = 0; r < telemetry::kAuditRules; ++r) {
    EXPECT_GT(rules_seen[r], 0u)
        << "rule " << telemetry::audit_rule_name(r) << " never fired";
  }
}

TEST(AuditProvenance, ProfilesCountComparisons) {
  DecisionAudit audit(4);
  telemetry::MetricsRegistry reg;
  audit.bind_registry(reg);

  // Stream 0 beats 1 on deadline twice, 2 beats 3 on id tie-break once.
  // The exact comparison count commits at the decision boundary.
  audit.on_comparison(0, 1, 1);
  audit.on_comparison(0, 1, 1);
  audit.on_comparison(2, 3, 6);
  audit.end_decision();

  EXPECT_EQ(audit.comparisons(), 3u);
  EXPECT_EQ(audit.comparisons_sampled(), 3u);
  EXPECT_EQ(audit.rule_total(1), 2u);
  EXPECT_EQ(audit.rule_total(6), 1u);
  EXPECT_EQ(audit.wins(0, 1), 2u);
  EXPECT_EQ(audit.losses(1, 1), 2u);
  EXPECT_EQ(audit.wins(2, 6), 1u);
  EXPECT_EQ(audit.losses(3, 6), 1u);
  EXPECT_EQ(audit.wins(3, 6), 0u);

  // The same firings ride in the metrics snapshot.
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"audit.comparisons\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"audit.rule.deadline\":2"), std::string::npos);
  EXPECT_NE(json.find("\"audit.rule.id_tie_break\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Burn-cause classification precedence.

TEST(AuditBurn, ClassificationPrecedence) {
  DecisionAudit audit(8);

  // Fault context outranks everything this decision.
  audit.note_fault();
  audit.note_overflow(0);
  audit.on_comparison(1, 0, 1);
  audit.on_violation(0);
  audit.end_decision();
  EXPECT_EQ(audit.burn(0, static_cast<std::size_t>(BurnCause::kFaultStall)),
            1u);

  // Overflow (sticky across decisions until consumed) beats tiebreak.
  audit.note_overflow(1);
  audit.on_violation(1);
  audit.end_decision();
  EXPECT_EQ(
      audit.burn(1, static_cast<std::size_t>(BurnCause::kQueueOverflow)), 1u);

  // Lost a comparator this decision: attributed to the losing rule.
  audit.on_comparison(3, 2, 2);  // stream 2 lost on window-constraint
  audit.on_violation(2);
  audit.end_decision();
  EXPECT_EQ(
      audit.burn(2, static_cast<std::size_t>(BurnCause::kLostTiebreak)), 1u);
  EXPECT_EQ(audit.burn_rule(2, 2), 1u);

  // Clean cycle: unattributed.
  audit.on_violation(4);
  audit.end_decision();
  EXPECT_EQ(
      audit.burn(4, static_cast<std::size_t>(BurnCause::kUnattributed)), 1u);

  // The cycle context must not leak across end_decision().
  audit.on_violation(2);
  audit.end_decision();
  EXPECT_EQ(
      audit.burn(2, static_cast<std::size_t>(BurnCause::kUnattributed)), 1u)
      << "stale lost-rule context survived the decision boundary";

  EXPECT_EQ(audit.violations(1), 1u);
  EXPECT_EQ(audit.violations(2), 2u);

  // Every burn counter sums back to the violation count.
  for (std::uint32_t s = 0; s < 5; ++s) {
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < telemetry::kBurnCauses; ++c) {
      total += audit.burn(s, c);
    }
    EXPECT_EQ(total, audit.violations(s)) << "stream " << s;
  }
}

// ---------------------------------------------------------------------------
// SLO burn through the endsystem.

// Whatever violations the chip commits, the audit classifies every one of
// them: each stream's burn causes sum back to its violation count.
TEST(AuditSlo, EndsystemImportsBurnCounters) {
  using namespace ss;
  telemetry::AuditSession session(4);
  core::EndsystemConfig cfg;
  cfg.chip.slots = 4;
  cfg.chip.cmp_mode = hw::ComparisonMode::kDwcsFull;
  cfg.keep_series = false;
  cfg.audit = &session;
  core::Endsystem es(cfg);
  const double ptime_ns = packet_time_ns(1500, cfg.link_gbps);
  for (unsigned i = 0; i < 4; ++i) {
    dwcs::StreamRequirement r;
    r.kind = dwcs::RequirementKind::kWindowConstrained;
    r.period = 2;  // 4 streams at 1/2 each: overload, deadlines must slip
    r.loss_num = 1;
    r.loss_den = 4;
    r.initial_deadline = i + 1;
    es.add_stream(r, std::make_unique<queueing::CbrGen>(
                         static_cast<std::uint64_t>(ptime_ns)),
                  1500);
  }
  es.run(400);

  const DecisionAudit& da = session.audit();
  EXPECT_GT(da.comparisons(), 0u);
  for (std::uint32_t s = 0; s < 4; ++s) {
    std::uint64_t burn_total = 0;
    for (std::size_t c = 0; c < telemetry::kBurnCauses; ++c) {
      burn_total += da.burn(s, c);
    }
    EXPECT_EQ(burn_total, da.violations(s)) << "stream " << s;
  }
}

// ---------------------------------------------------------------------------
// Observation only: auditing must not move a single grant.

TEST(AuditDigest, ObservationOnly10k) {
  using namespace ss::testing;
  WorkloadFuzzer::Options fo;
  fo.seed = 20260806;
  fo.events_per_scenario = 800;
  WorkloadFuzzer plain_fuzzer(fo);
  WorkloadFuzzer audited_fuzzer(fo);  // same seed: identical scenario stream

  const DifferentialExecutor plain;
  telemetry::AuditSession session(telemetry::kAuditMaxStreams);
  DifferentialExecutor::Options ao;
  ao.audit = &session;
  const DifferentialExecutor audited(ao);

  std::uint64_t decisions = 0;
  int k = 0;
  while (decisions < 10000) {
    ASSERT_LT(k, 200) << "campaign failed to reach 10k decisions";
    const Scenario a = plain_fuzzer.next();
    const Scenario b = audited_fuzzer.next();
    ASSERT_EQ(a, b) << "fuzzer determinism broke at scenario " << k;
    const RunResult ra = plain.run(a);
    const RunResult rb = audited.run(b);
    ASSERT_FALSE(ra.diverged) << ra.detail;
    ASSERT_FALSE(rb.diverged) << rb.detail;
    ASSERT_EQ(ra.digest, rb.digest)
        << "auditing changed the schedule in scenario " << k;
    decisions += ra.decisions;
    ++k;
  }
  EXPECT_GT(session.audit().comparisons(), 0u)
      << "the audited campaign never saw a comparison";
  EXPECT_GT(session.recorder().recorded(), 0u);
}

// ---------------------------------------------------------------------------
// The black box under failover.

TEST(AuditFailoverDump, LastDecisionMatchesOracle) {
  using namespace ss::testing;

  // A deterministic DWCS scenario: 4 slots, winner-only routing, steady
  // arrivals, forced failover at the 50th grant.
  Scenario sc;
  sc.fabric.slots = 4;
  sc.fabric.discipline = Discipline::kDwcs;
  sc.fabric.block_mode = false;
  for (unsigned i = 0; i < 4; ++i) {
    StreamSetup s;
    s.period = static_cast<std::uint16_t>(2 + i);
    s.loss_num = 1;
    s.loss_den = 4;
    s.initial_deadline = i + 1;
    sc.streams.push_back(s);
  }
  for (int round = 0; round < 80; ++round) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      Event e;
      e.kind = EventKind::kArrival;
      e.stream = i;
      sc.events.push_back(e);
    }
    for (int d = 0; d < 6; ++d) {
      sc.events.push_back(Event{});  // kDecide
    }
  }
  sc.faults.seed = 1;  // plane enabled, no probabilistic faults
  constexpr std::uint64_t kFailAtGrant = 50;
  sc.inject_fault_at_grant = kFailAtGrant;

  telemetry::AuditSession session(4);
  DifferentialExecutor::Options opt;
  opt.audit = &session;
  const DifferentialExecutor ex(opt);
  const RunResult r = ex.run(sc);
  ASSERT_FALSE(r.diverged) << r.detail;
  ASSERT_TRUE(r.failed_over) << "forced failover did not happen; grants="
                             << r.grants << " decisions=" << r.decisions
                             << " faults=" << r.faults_injected;

  // The failover dumped the black box.
  const std::optional<AuditSession::Dump> dump = session.last_dump();
  ASSERT_TRUE(dump.has_value()) << "failover left no dump";
  EXPECT_EQ(dump->cause, "failover");
  EXPECT_NE(dump->section.find("\"ring\":["), std::string::npos);

  // Independent oracle replay of the same scenario up to the failover
  // point: the chip's last recorded decision is the one that granted the
  // kFailAtGrant-th frame, and its post-update register state must match
  // the software scheduler's, stream for stream.
  dwcs::ReferenceScheduler oracle;
  for (const StreamSetup& s : sc.streams) {
    oracle.add_stream(to_stream_spec(Discipline::kDwcs, s));
  }
  std::uint64_t grants = 0;
  bool stopped = false;
  for (const Event& e : sc.events) {
    if (stopped) break;
    switch (e.kind) {
      case EventKind::kArrival:
        oracle.push_request(e.stream, oracle.vtime());
        break;
      case EventKind::kDecide: {
        const dwcs::SwDecision d = oracle.run_decision_cycle();
        grants += d.grants.size();
        if (grants >= kFailAtGrant) stopped = true;
        break;
      }
      default:
        break;
    }
  }
  ASSERT_TRUE(stopped) << "scenario produced fewer than " << kFailAtGrant
                       << " grants";

  const DecisionRecord last = session.recorder().last();
  ASSERT_GE(last.n_grants, 1u);
  ASSERT_EQ(last.n_streams, 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    const dwcs::StreamState& os = oracle.stream(i);
    EXPECT_EQ(last.streams[i].deadline, os.attrs.deadline & 0xFFFFu)
        << "deadline mismatch at failover point, stream " << i;
    EXPECT_EQ(last.streams[i].backlog, os.backlog)
        << "backlog mismatch at failover point, stream " << i;
    EXPECT_EQ(last.streams[i].violations, os.counters.violations)
        << "violation count mismatch at failover point, stream " << i;
  }
  // The recorder froze at the failover: the chip granted exactly one frame
  // per recorded (non-idle) decision in WR mode, and nothing was recorded
  // after the seam — so the record count is exactly the grant ordinal the
  // failover was forced at.
  EXPECT_EQ(session.recorder().recorded(), kFailAtGrant)
      << "chip decisions recorded after the failover seam";
}

// Under Observability the failover's dump reaches the run document at the
// seam: before finish() the file holds the schema, the cause and the audit
// section and nothing else; finish() then writes every section around the
// same audit bytes.
TEST(AuditFailoverDump, RunDocumentKeepsTheSeamCapture) {
  const std::string path = ::testing::TempDir() + "failover_run.json";
  std::remove(path.c_str());
  telemetry::ObservabilityOptions opts;
  opts.out = path;
  telemetry::Observability obs(opts, 4, /*profiled=*/true,
                               /*fault_plane=*/true);

  core::EndsystemConfig cfg;
  cfg.chip.slots = 4;
  cfg.chip.cmp_mode = hw::ComparisonMode::kDwcsFull;
  cfg.keep_series = false;
  cfg.faults.seed = 1;
  cfg.faults.chip_fail_after = 200;  // chip death at decision attempt 200
  cfg.metrics = obs.metrics();
  cfg.audit = obs.audit();
  cfg.profiler = obs.profiler();
  core::Endsystem es(cfg);
  const double ptime_ns = packet_time_ns(1500, cfg.link_gbps);
  for (unsigned i = 0; i < 4; ++i) {
    dwcs::StreamRequirement r;
    r.kind = dwcs::RequirementKind::kWindowConstrained;
    r.period = 4;
    r.loss_num = 1;
    r.loss_den = 4;
    r.initial_deadline = i + 1;
    es.add_stream(r, std::make_unique<queueing::CbrGen>(
                         static_cast<std::uint64_t>(ptime_ns * 4)),
                  1500);
  }
  obs.start();
  ASSERT_TRUE(es.run(1000).failed_over);

  const std::string seam_text = slurp(path);
  const auto seam = util::JsonValue::parse(seam_text);
  ASSERT_TRUE(seam.has_value()) << "no run document at the seam";
  EXPECT_EQ(seam->str_at("schema"), "ss-run-v1");
  EXPECT_EQ(seam->str_at("cause"), "failover");
  ASSERT_NE(seam->find("audit"), nullptr);
  const util::JsonValue* ring = seam->find("audit")->find("ring");
  ASSERT_NE(ring, nullptr);
  EXPECT_GT(ring->as_array().size(), 0u);
  EXPECT_EQ(seam->as_object().size(), 3u) << "schema, cause and audit only";

  // The session moves on after the seam (a fresh section would now count
  // one more fault); the document must keep the section the seam froze.
  obs.audit()->note_fault(AuditSession::FaultSite::kPci);
  ASSERT_TRUE(obs.finish("test"));
  const std::string full_text = slurp(path);
  const auto full = util::JsonValue::parse(full_text);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->str_at("cause"), "failover");
  for (const char* section : {"metrics", "audit", "profile", "timeseries"}) {
    EXPECT_NE(full->find(section), nullptr) << section;
  }
  // The seam document is `{...,"audit":<section>}\n`; the full one must
  // carry the same section bytes.
  const std::string key = "\"audit\":";
  const std::size_t at = seam_text.find(key) + key.size();
  const std::string section = seam_text.substr(at, seam_text.size() - at - 2);
  EXPECT_NE(full_text.find(key + section + ",\"profile\":"), std::string::npos)
      << "finish() rewrote the audit section the seam froze";
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Concurrency: live export races the threaded endsystem (TSan job).

TEST(AuditStress, LiveExportRacesThreadedRun) {
  using namespace ss;
  telemetry::MetricsRegistry reg;
  telemetry::AuditSession session(4, 64);
  core::ThreadedConfig cfg;
  cfg.chip.slots = 4;
  cfg.chip.cmp_mode = hw::ComparisonMode::kDwcsFull;
  cfg.ring_capacity = 256;  // small rings: exercise the overflow path too
  cfg.metrics = &reg;
  cfg.audit = &session;
  core::ThreadedEndsystem es(cfg);
  for (unsigned i = 0; i < 4; ++i) {
    dwcs::StreamRequirement r;
    r.kind = dwcs::RequirementKind::kWindowConstrained;
    r.period = 2 + i;
    r.loss_num = 1;
    r.loss_den = 4;
    r.initial_deadline = i + 1;
    es.add_stream(r);
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> exports{0};
  std::thread monitor([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::string j = session.to_json();
      ASSERT_NE(j.find("\"ring\":"), std::string::npos);
      (void)session.recorder().entries();
      (void)session.audit().comparisons();
      exports.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const core::ThreadedReport rep = es.run(3000);
  done.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_EQ(rep.frames_transmitted, 4u * 3000u);
  EXPECT_GT(exports.load(), 0u);
  EXPECT_GT(session.audit().comparisons(), 0u);
  EXPECT_GT(session.recorder().recorded(), 0u);
}

}  // namespace
}  // namespace ss
