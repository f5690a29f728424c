#include "testing/differential_executor.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "dwcs/modes.hpp"
#include "hwpq/factory.hpp"
#include "robust/guarded_scheduler.hpp"
#include "testing/rank_equivalence.hpp"
#include "util/hash.hpp"

namespace ss::testing {
namespace {

// Field tags mixed into the digest ahead of each value, so that streams
// with transposed fields cannot collide.
enum : std::uint8_t {
  kTagIdle = 1,
  kTagGrant = 2,
  kTagCirculated = 3,
  kTagDrop = 4,
  kTagCounters = 5,
};

std::string describe_grant(const char* who, std::uint32_t stream,
                           std::uint64_t emit, bool met) {
  std::ostringstream os;
  os << who << "{stream=" << stream << " emit=" << emit
     << " met=" << (met ? 1 : 0) << "}";
  return os.str();
}

/// hwpq entries need a single integer key realizing the fabric's tag-only
/// total order.  Keys are only comparable to the fabric when tags are
/// globally unique (Scenario::global_tags), so the ID bits below the tag
/// never actually decide — they just keep keys distinct for the PQ
/// structures' own invariants.
std::uint64_t pq_key(std::uint64_t tag, std::uint32_t id) {
  return (tag << 8) | id;
}

struct AggState {
  core::AggregationManager mgr;
  // slot -> handle in mgr (or -1 when the slot is unaggregated)
  std::vector<std::int32_t> handle;
  std::vector<std::uint64_t> slot_grants;  // grants delivered per slot
};

}  // namespace

RunResult DifferentialExecutor::run(const Scenario& sc) const {
  RunResult res;
  Fnv1a64 hash;

  // --- construct the implementations ------------------------------------
  const hw::ChipConfig hc = to_chip_config(sc.fabric);
  hw::SchedulerChip chip(hc);

  // The chip is driven through its scheduler front.  Under the scenario's
  // fault plane the guard retries injected faults and fails over to its
  // own software shadow on exhaustion.  The oracle below never faults, so
  // the diff checks the recovery contract end to end: the guarded grant
  // stream must stay oracle-equivalent across every fault and across the
  // failover seam.  Without a plane the guard is the plain chip.
  std::unique_ptr<robust::FaultPlan> fault_plan;
  if (sc.faults.enabled()) {
    fault_plan = std::make_unique<robust::FaultPlan>(sc.faults);
  }
  // Model the SRAM transport to exercise its fault sites too.
  robust::GuardedScheduler guard(chip, fault_plan.get(),
                                 /*model_transport=*/true);

  // Diagnosis context: the waveform window divergence reports render, and
  // (when the driver passed a registry) the chip's metric stream.
  hw::Tracer tracer(opt_.trace_depth == 0 ? 1 : opt_.trace_depth);
  chip.attach_tracer(&tracer);
  telemetry::ChipMetrics chip_metrics;
  if (opt_.metrics) {
    chip_metrics = telemetry::ChipMetrics::create(*opt_.metrics);
    chip.attach_metrics(&chip_metrics);
  }
  telemetry::RobustMetrics robust_metrics;
  if (opt_.metrics && fault_plan) {
    robust_metrics = telemetry::RobustMetrics::create(*opt_.metrics);
    guard.attach_metrics(&robust_metrics);
  }
  if (opt_.audit) {
    // Observation only: the audit hooks read chip state and never steer a
    // comparison, so a run's digest is identical with or without a session
    // attached (asserted by AuditDigest.ObservationOnly10k).
    guard.attach_audit(opt_.audit);
    opt_.audit->begin_run();
  }

  dwcs::ReferenceScheduler oracle(dwcs::reference_options(hc));

  const unsigned n = sc.fabric.slots;
  for (unsigned i = 0; i < n; ++i) {
    const hw::SlotConfig slot_cfg =
        to_slot_config(sc.fabric.discipline, sc.streams[i]);
    const dwcs::StreamSpec spec =
        to_stream_spec(sc.fabric.discipline, sc.streams[i]);
    guard.load_slot(static_cast<hw::SlotId>(i), slot_cfg, spec);
    oracle.add_stream(spec);
  }

  // The four related-work PQ structures join the diff in fair-tag WR
  // scenarios, where the fabric's grant order is a pure pop-min sequence.
  const std::size_t tagged_events = static_cast<std::size_t>(
      std::count_if(sc.events.begin(), sc.events.end(), [](const Event& e) {
        return e.kind != EventKind::kDecide && e.kind != EventKind::kReconfig;
      }));
  bool hwpq_active = sc.fabric.discipline == Discipline::kFairTag &&
                     !sc.fabric.block_mode && sc.global_tags;
  std::vector<std::unique_ptr<hwpq::HwPriorityQueue>> pqs;
  if (hwpq_active) {
    for (hwpq::PqKind k : hwpq::kAllPqKinds) {
      pqs.push_back(hwpq::make_pq(k, tagged_events + 8));
    }
  }

  // Host-side aggregation: grants fan out to streamlets after scheduling.
  AggState agg;
  const bool agg_active = !sc.aggregation.empty();
  if (agg_active) {
    agg.handle.assign(n, -1);
    agg.slot_grants.assign(n, 0);
    for (std::size_t s = 0; s < sc.aggregation.size(); ++s) {
      if (!sc.aggregation[s].empty()) {
        agg.handle[s] =
            static_cast<std::int32_t>(agg.mgr.bind_slot(sc.aggregation[s]));
      }
    }
  }

  std::vector<std::uint64_t> tag_clock(n, 0);
  std::uint64_t global_tag_clock = 0;
  std::uint64_t grant_ordinal = 0;  // 1-based count of oracle grants seen

  auto diverge = [&](std::size_t event_index, const std::string& detail) {
    res.diverged = true;
    res.event_index = event_index;
    res.decision_cycle = res.decisions;
    res.detail = detail;
  };

  // --- event loop --------------------------------------------------------
  hw::DecisionOutcome h;  // reused across kDecide events (no per-decision
                          // allocation once capacities settle)
  for (std::size_t ei = 0; ei < sc.events.size() && !res.diverged; ++ei) {
    const Event& e = sc.events[ei];
    switch (e.kind) {
      case EventKind::kArrival:
      case EventKind::kTaggedArrival: {
        const std::uint32_t s = e.stream;
        const std::uint64_t arr = guard.vtime();
        if (sc.fabric.discipline == Discipline::kFairTag) {
          // Service tags must advance monotonically per stream; a plain
          // arrival in a fair-tag scenario degrades to increment 1 so any
          // event subsequence stays valid (the shrinker depends on this).
          const std::uint64_t inc =
              e.kind == EventKind::kTaggedArrival
                  ? std::max<std::uint32_t>(1, e.tag_increment)
                  : 1;
          std::uint64_t tag;
          if (sc.global_tags) {
            global_tag_clock += inc;
            tag = global_tag_clock;
          } else {
            tag_clock[s] += inc;
            tag = tag_clock[s];
          }
          guard.push_tagged_request(static_cast<hw::SlotId>(s), tag, arr);
          oracle.push_tagged_request(s, tag, arr);
          for (auto& pq : pqs) {
            pq->push({pq_key(tag, s), s});
          }
        } else {
          guard.push_request(static_cast<hw::SlotId>(s), arr);
          oracle.push_request(s, arr);
        }
        ++res.arrivals;
        break;
      }

      case EventKind::kReconfig: {
        if (!guard.failed_over()) {
          res.chip_violations[e.stream] +=
              chip.slot(static_cast<hw::SlotId>(e.stream))
                  .counters()
                  .violations;
        }
        guard.load_slot(static_cast<hw::SlotId>(e.stream),
                        to_slot_config(sc.fabric.discipline, e.setup),
                        to_stream_spec(sc.fabric.discipline, e.setup));
        oracle.reload_stream(
            e.stream, to_stream_spec(sc.fabric.discipline, e.setup));
        // The PQs have no "discard this stream's entries" operation (the
        // paper's argument, in miniature); their contents are now stale.
        hwpq_active = false;
        pqs.clear();
        break;
      }

      case EventKind::kDecide: {
        guard.run_decision_cycle(h);
        dwcs::SwDecision s = oracle.run_decision_cycle();
        ++res.decisions;
        res.grants += h.grants.size();
        res.drops += h.drops.size();

        // The inject_fault_at_grant knob, two eras: with the fault plane
        // disabled it corrupts the oracle's K-th grant (shrinker/replay
        // self-validation, the PR-1 contract); with the plane enabled it
        // forces failover at the K-th grant — the schedule must NOT change,
        // which the remaining diffs verify.
        if (sc.inject_fault_at_grant != 0) {
          if (sc.faults.enabled()) {
            for (const dwcs::SwGrant& g : s.grants) {
              (void)g;
              if (++grant_ordinal == sc.inject_fault_at_grant) {
                guard.force_failover();
              }
            }
          } else {
            for (dwcs::SwGrant& g : s.grants) {
              if (++grant_ordinal == sc.inject_fault_at_grant) {
                g.met_deadline = !g.met_deadline;
              }
            }
          }
        }

        // --- diff the outcomes ---
        if (h.idle != s.idle) {
          diverge(ei, std::string("idle flag: chip=") +
                          (h.idle ? "1" : "0") + " oracle=" +
                          (s.idle ? "1" : "0"));
          break;
        }
        hash.mix_byte(kTagIdle);
        hash.mix(h.idle ? 1 : 0);
        if (h.grants.size() != s.grants.size()) {
          diverge(ei, "grant count: chip=" + std::to_string(h.grants.size()) +
                          " oracle=" + std::to_string(s.grants.size()));
          break;
        }
        // A decision grants each slot at most once: the Transmission
        // Engine pops one frame per grant and never merges repeats.
        bool grant_diff = false;
        std::uint64_t granted = 0;
        for (std::size_t g = 0; g < h.grants.size(); ++g) {
          const hw::Grant& hg = h.grants[g];
          const dwcs::SwGrant& sg = s.grants[g];
          const std::uint64_t bit = std::uint64_t{1} << hg.slot;
          if (granted & bit) {
            diverge(ei, "grant " + std::to_string(g) + " repeats slot " +
                            std::to_string(hg.slot) + " in one decision");
            grant_diff = true;
            break;
          }
          granted |= bit;
          if (hg.slot != sg.stream || hg.emit_vtime != sg.emit_vtime ||
              hg.met_deadline != sg.met_deadline) {
            diverge(ei, "grant " + std::to_string(g) + ": " +
                            describe_grant("chip", hg.slot, hg.emit_vtime,
                                           hg.met_deadline) +
                            " vs " +
                            describe_grant("oracle", sg.stream, sg.emit_vtime,
                                           sg.met_deadline));
            grant_diff = true;
            break;
          }
          hash.mix_byte(kTagGrant);
          hash.mix(hg.slot);
          hash.mix(hg.emit_vtime);
          hash.mix(hg.met_deadline ? 1 : 0);
        }
        if (grant_diff) break;
        const bool h_circ = h.circulated.has_value();
        const bool s_circ = s.circulated.has_value();
        if (h_circ != s_circ ||
            (h_circ && static_cast<std::uint32_t>(*h.circulated) !=
                           *s.circulated)) {
          diverge(ei, "circulated ID: chip=" +
                          (h_circ ? std::to_string(*h.circulated)
                                  : std::string("none")) +
                          " oracle=" +
                          (s_circ ? std::to_string(*s.circulated)
                                  : std::string("none")));
          break;
        }
        hash.mix_byte(kTagCirculated);
        hash.mix(h_circ ? 1 + std::uint64_t{*h.circulated} : 0);
        if (h.drops.size() != s.drops.size() ||
            !std::equal(h.drops.begin(), h.drops.end(), s.drops.begin(),
                        [](hw::SlotId a, std::uint32_t b) {
                          return std::uint32_t{a} == b;
                        })) {
          diverge(ei, "drop set mismatch (chip has " +
                          std::to_string(h.drops.size()) + ", oracle has " +
                          std::to_string(s.drops.size()) + ")");
          break;
        }
        for (hw::SlotId d : h.drops) {
          hash.mix_byte(kTagDrop);
          hash.mix(d);
        }
        if (guard.vtime() != oracle.vtime()) {
          diverge(ei, "vtime: chip=" + std::to_string(guard.vtime()) +
                          " oracle=" + std::to_string(oracle.vtime()));
          break;
        }

        // --- hwpq variants: their pop order is the fabric's grant order ---
        if (hwpq_active && !h.idle) {
          for (const hw::Grant& g : h.grants) {
            std::optional<hwpq::Entry> first;
            for (std::size_t p = 0; p < pqs.size() && !res.diverged; ++p) {
              const auto popped = pqs[p]->pop_min();
              if (!popped) {
                diverge(ei, pqs[p]->name() + " empty but chip granted slot " +
                                std::to_string(g.slot));
                break;
              }
              if (popped->id != g.slot) {
                diverge(ei, pqs[p]->name() + " popped stream " +
                                std::to_string(popped->id) +
                                " but chip granted slot " +
                                std::to_string(g.slot));
                break;
              }
              if (!first) {
                first = *popped;
              } else if (!(*popped == *first)) {
                diverge(ei, pqs[p]->name() + " popped a different entry than " +
                                "the other PQ variants for slot " +
                                std::to_string(g.slot));
                break;
              }
            }
            if (res.diverged) break;
          }
        }

        // --- host-side aggregation fan-out ---
        if (agg_active && !res.diverged) {
          for (const hw::Grant& g : h.grants) {
            if (agg.handle[g.slot] >= 0) {
              agg.mgr.on_grant(static_cast<std::uint32_t>(agg.handle[g.slot]));
              ++agg.slot_grants[g.slot];
            }
          }
        }
        break;
      }
    }
  }

  for (unsigned i = 0; i < n; ++i) {
    res.chip_violations[i] +=
        chip.slot(static_cast<hw::SlotId>(i)).counters().violations;
  }

  // --- end-of-run state comparison ---------------------------------------
  if (!res.diverged) {
    for (unsigned i = 0; i < n; ++i) {
      const dwcs::StreamCounters hmap = guard.counters(i);
      const std::uint32_t hbacklog = guard.backlog(i);
      const dwcs::StreamCounters& scnt = oracle.stream(i).counters;
      if (!(hmap == scnt)) {
        diverge(sc.events.size(),
                "final counters differ for stream " + std::to_string(i));
        break;
      }
      if (hbacklog != oracle.stream(i).backlog) {
        diverge(sc.events.size(),
                "final backlog differs for stream " + std::to_string(i));
        break;
      }
      hash.mix_byte(kTagCounters);
      hash.mix(i);
      hash.mix(hmap.missed_deadlines);
      hash.mix(hmap.violations);
      hash.mix(hmap.serviced);
      hash.mix(hmap.late_transmissions);
      hash.mix(hmap.winner_cycles);
      hash.mix(hbacklog);
    }
  }

  // --- aggregation invariants --------------------------------------------
  if (!res.diverged && agg_active) {
    for (unsigned s = 0; s < n; ++s) {
      if (agg.handle[s] < 0) continue;
      const auto handle = static_cast<std::uint32_t>(agg.handle[s]);
      const std::vector<core::StreamletSet>& plan = sc.aggregation[s];
      const std::vector<std::uint64_t>& grants = agg.mgr.grants(handle);

      // Conservation: every slot grant reached exactly one streamlet.
      std::uint64_t total = 0;
      for (std::uint64_t g : grants) total += g;
      if (total != agg.slot_grants[s]) {
        diverge(sc.events.size(),
                "aggregation lost grants on slot " + std::to_string(s));
        break;
      }

      // Within each set: plain round-robin keeps streamlet counts within 1.
      std::uint64_t weight_sum = 0;
      std::size_t base = 0;
      for (std::size_t k = 0; k < plan.size(); ++k) {
        weight_sum += plan[k].weight;
        const auto lo_hi = std::minmax_element(
            grants.begin() + static_cast<std::ptrdiff_t>(base),
            grants.begin() +
                static_cast<std::ptrdiff_t>(base + plan[k].streamlets));
        if (*lo_hi.second - *lo_hi.first > 1) {
          diverge(sc.events.size(),
                  "round-robin spread > 1 within set " + std::to_string(k) +
                      " of slot " + std::to_string(s));
          break;
        }
        base += plan[k].streamlets;
      }
      if (res.diverged) break;

      // Across sets: the credit scheme keeps each set within one full
      // round (sum of weights) of its proportional share.
      for (std::size_t k = 0; k < plan.size(); ++k) {
        const double share = static_cast<double>(total) * plan[k].weight /
                             static_cast<double>(weight_sum);
        const double got =
            static_cast<double>(agg.mgr.set_grants(handle, k));
        if (std::abs(got - share) >
            static_cast<double>(weight_sum) + 1.0) {
          diverge(sc.events.size(),
                  "weighted share off by more than one round for set " +
                      std::to_string(k) + " of slot " + std::to_string(s));
          break;
        }
      }
      if (res.diverged) break;
    }
  }

  // --- rank-layer differential -------------------------------------------
  // An independent replay of the same event stream: the rank-expressed
  // discipline on its PIFO substrate against the bespoke sched/
  // implementation.  Runs after the chip diff (it shares no state with
  // it) and mixes its pop stream into the digest under tag 6 — scenarios
  // without the axis hash exactly as before.
  if (!res.diverged && sc.rank.enabled) {
    std::vector<std::size_t> event_of;
    const std::vector<RankOp> ops = ops_from_events(sc.events, &event_of);
    RankHarness rh = make_rank_harness(sc.rank, sc.streams, ops.size() + 8);
    const RankDiffOutcome ro = run_rank_ops(rh, ops, &hash);
    res.rank_checked = true;
    res.rank_served = ro.served;
    res.rank_inversions = ro.inversions;
    if (ro.diverged) {
      diverge(ro.op_index < event_of.size() ? event_of[ro.op_index]
                                            : sc.events.size(),
              "rank layer: " + ro.detail);
    }
  }

  res.hwpq_checked = hwpq_active && !pqs.empty();
  res.digest = hash.digest();
  if (fault_plan) {
    res.faults_injected = fault_plan->total_injected();
    res.robust = guard.stats();
    res.failed_over = guard.failed_over();
  }
  if (res.diverged) {
    res.chip_trace_tail = tracer.render_all();
    if (opt_.metrics) res.metrics_json = opt_.metrics->to_json();
    if (opt_.audit) opt_.audit->dump("divergence");
  }
  if (opt_.export_chrome_trace) {
    res.chip_trace_chrome_json = tracer.to_chrome_json();
  }
  return res;
}

}  // namespace ss::testing
