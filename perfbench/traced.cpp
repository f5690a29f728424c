#include "traced.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <thread>

#include "core/admission.hpp"
#include "core/qos_monitor.hpp"
#include "dwcs/reference_scheduler.hpp"
#include "hw/pci.hpp"
#include "hw/scheduler_chip.hpp"
#include "queueing/link_model.hpp"
#include "queueing/queue_manager.hpp"
#include "queueing/transmission_engine.hpp"
#include "util/hash.hpp"
#include "util/sim_time.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double seconds_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// Exact percentile (nearest rank) of a sample vector; reorders it.
double percentile(std::vector<std::uint32_t>& v, double p) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  const std::size_t idx = k == 0 ? 0 : std::min(k, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint32_t clamp32(std::uint64_t ns) {
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, UINT32_MAX));
}

// True while every live field the chip compares — deadline and arrival
// stamp of each pending stream — lies within half the 16-bit serial
// number space.  Only there must the 16-bit chip and the 64-bit oracle
// agree (reference_scheduler.hpp); past it the chip's serial comparisons
// invert by design.
bool within_serial_horizon(const ss::dwcs::ReferenceScheduler& ref) {
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (std::uint32_t i = 0; i < ref.stream_count(); ++i) {
    const ss::dwcs::StreamState& s = ref.stream(i);
    if (s.backlog == 0) continue;
    lo = std::min({lo, s.attrs.deadline, s.attrs.arrival});
    hi = std::max({hi, s.attrs.deadline, s.attrs.arrival});
  }
  return lo > hi || hi - lo < (std::uint64_t{1} << 15);
}

ss::dwcs::ReferenceScheduler::Options oracle_options(
    const ss::hw::ChipConfig& cc) {
  // Same mapping GuardedScheduler uses for its lockstep shadow.
  ss::dwcs::ReferenceScheduler::Options o;
  o.block_mode = cc.block_mode;
  o.min_first = cc.min_first;
  o.edf_comparison = cc.cmp_mode == ss::hw::ComparisonMode::kTagOnly;
  o.batch_depth = cc.batch_depth;
  return o;
}

}  // namespace

std::uint64_t Outcome::digest() const {
  ss::Fnv1a64 h;
  for (const std::uint64_t v :
       {offered, completed, dropped_late, spurious, decisions, committed,
        hw_cycles, comparisons, pci_ns}) {
    h.mix(v);
  }
  h.mix(std::bit_cast<std::uint64_t>(delay_p50_us));
  h.mix(std::bit_cast<std::uint64_t>(delay_p99_us));
  for (const std::uint64_t f : stream_frames) h.mix(f);
  for (const ss::hw::SlotCounters& c : counters) {
    for (const std::uint64_t v : {c.missed_deadlines, c.violations, c.serviced,
                                  c.late_transmissions, c.winner_cycles}) {
      h.mix(v);
    }
  }
  return h.digest();
}

std::vector<std::string> outcome_diff(const Outcome& a, const Outcome& b) {
  std::vector<std::string> d;
  const auto check = [&](bool same, const char* name) {
    if (!same) d.emplace_back(name);
  };
  check(a.offered == b.offered, "offered");
  check(a.completed == b.completed, "completed");
  check(a.dropped_late == b.dropped_late, "dropped_late");
  check(a.spurious == b.spurious, "spurious");
  check(a.decisions == b.decisions, "decisions");
  check(a.committed == b.committed, "committed");
  check(a.hw_cycles == b.hw_cycles, "hw_cycles");
  check(a.comparisons == b.comparisons, "comparisons");
  check(a.pci_ns == b.pci_ns, "pci_ns");
  check(a.delay_p50_us == b.delay_p50_us, "delay_p50_us");
  check(a.delay_p99_us == b.delay_p99_us, "delay_p99_us");
  check(a.stream_frames == b.stream_frames, "stream_frames");
  check(a.counters == b.counters, "slot_counters");
  return d;
}

std::string compare_decision(const OracleDecision& chip,
                             const OracleDecision& oracle) {
  const auto show = [](const std::vector<std::uint32_t>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i ? " " : "") + std::to_string(v[i]);
    }
    return s + "]";
  };
  if (chip.idle != oracle.idle) return "idle verdict";
  if (chip.grants != oracle.grants) {
    return "grant slots (chip " + show(chip.grants) + ", oracle " +
           show(oracle.grants) + ")";
  }
  if (chip.drops != oracle.drops) {
    return "dropped slots (chip " + show(chip.drops) + ", oracle " +
           show(oracle.drops) + ")";
  }
  return {};
}

TracedResult run_traced(const Workload& w, bool oracle) {
  namespace hw = ss::hw;
  namespace q = ss::queueing;
  const ss::core::EndsystemConfig& cfg = w.cfg;
  const auto n = static_cast<std::uint32_t>(w.streams.size());
  const double ptime = ss::packet_time_ns(cfg.ref_frame_bytes, cfg.link_gbps);
  TracedResult r;
  LayerMetrics& m = r.layers;

  // --- set-up, in Endsystem's order: construction, add_stream,
  // admission (periods + LOAD + monitor), frame pre-generation.
  hw::SchedulerChip chip(cfg.chip);
  hw::PciModel pci(cfg.pci);
  q::QueueManager qm(static_cast<std::uint64_t>(ptime));
  q::LinkModel link(cfg.link_gbps);
  q::TransmissionEngine te(qm, link);

  std::uint64_t t = now_ns();
  for (std::uint32_t i = 0; i < n; ++i) qm.add_stream(cfg.ring_capacity);
  std::uint64_t t2 = now_ns();
  m["queueing.qm.add_stream_s"] = seconds_between(t, t2);

  t = t2;
  const std::vector<ss::dwcs::StreamRequirement> reqs = w.requirements();
  // The untraced rep makes the same admission check (and rejects a set it
  // fails); here it only has to cost the same.
  static_cast<void>(ss::core::AdmissionController::analyze(reqs));
  const std::vector<std::uint32_t> periods = ss::dwcs::fair_share_periods(reqs);
  for (std::uint32_t i = 0; i < n; ++i) {
    chip.load_slot(static_cast<hw::SlotId>(i), slot_config(reqs[i], periods[i]));
  }
  ss::core::QosMonitor monitor(n, cfg.bw_window_ns);
  monitor.set_keep_series(cfg.keep_series);
  monitor.set_delay_histogram(cfg.delay_histogram);
  t2 = now_ns();
  m["dwcs.admission_s"] = seconds_between(t, t2);

  t = t2;
  std::vector<std::vector<q::Frame>> frames(n);
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    frames[i] = make_gen(w.streams[i])
                    ->generate(i, w.streams[i].frames, w.frame_bytes);
    total += w.streams[i].frames;
  }
  t2 = now_ns();
  m["queueing.gen.generate_s"] = seconds_between(t, t2);

  // Lockstep oracle, loaded with the same stream set.
  ss::dwcs::ReferenceScheduler ref(oracle_options(cfg.chip));
  if (oracle) {
    for (std::uint32_t i = 0; i < n; ++i) {
      ref.add_stream(stream_spec(reqs[i], periods[i]));
    }
  }

  // --- drain loop: Endsystem::run's fixed-batch PIO path, call for call.
  std::vector<std::size_t> cursor(n, 0);
  std::vector<unsigned> batch_fill(n, 0);
  std::uint64_t drainable = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!frames[i].empty()) drainable |= std::uint64_t{1} << i;
  }
  std::vector<q::BlockGrant> burst;
  std::vector<q::TxRecord> burst_records;
  hw::DecisionOutcome out;
  OracleDecision chip_dec, ref_dec;
  std::uint64_t oracle_decisions = 0;
  const auto oracle_live = [&] {
    return oracle && r.oracle_error.empty() && r.oracle_left_horizon_at == 0;
  };

  // Child spans (host ns) and layer counts.
  std::uint64_t produce_ns = 0, push_ns = 0, pci_host_ns = 0, decide_ns = 0,
                transmit_ns = 0, record_ns = 0, oracle_ns = 0;
  std::uint64_t produce_attempts = 0, produce_full = 0, pushes = 0,
                pci_writes = 0, pci_reads = 0, pci_write_model = 0,
                pci_read_model = 0, bursts = 0, idle = 0;
  std::vector<std::uint32_t> committed_ns, idle_ns, burst_ns;
  committed_ns.reserve(total);
  burst_ns.reserve(total);
  std::uint64_t transmitted = 0, dropped_late = 0, committed = 0;

  const std::uint64_t loop0 = now_ns();
  while (transmitted < total) {
    const auto vnow = static_cast<std::uint64_t>(
        static_cast<double>(chip.vtime()) * ptime);

    // Deliver due arrivals.  Per stream: the QM produce run, then the chip
    // requests, then the PIO batches they complete.  The chip, QM and PCI
    // model each see their calls in Endsystem's order.
    for (std::uint64_t scan = drainable; scan != 0; scan &= scan - 1) {
      const auto i = static_cast<std::uint32_t>(std::countr_zero(scan));
      const std::uint64_t bit = std::uint64_t{1} << i;
      const std::size_t first = cursor[i];
      if (first < frames[i].size() && frames[i][first].arrival_ns <= vnow) {
        std::uint64_t a = now_ns();
        while (cursor[i] < frames[i].size() &&
               frames[i][cursor[i]].arrival_ns <= vnow) {
          ++produce_attempts;
          if (!qm.produce(i, frames[i][cursor[i]])) {
            ++produce_full;
            drainable &= ~bit;
            break;
          }
          ++cursor[i];
        }
        std::uint64_t b = now_ns();
        produce_ns += b - a;
        for (std::size_t k = first; k < cursor[i]; ++k) {
          const auto off = static_cast<std::uint64_t>(
              static_cast<double>(frames[i][k].arrival_ns) / ptime);
          chip.push_request(static_cast<hw::SlotId>(i), hw::Arrival{off});
        }
        a = now_ns();
        push_ns += a - b;
        pushes += cursor[i] - first;
        unsigned writes = 0;
        for (std::size_t k = first; k < cursor[i]; ++k) {
          if (++batch_fill[i] >= cfg.pci_batch) {
            batch_fill[i] = 0;
            ++writes;
          }
        }
        if (writes > 0) {
          const std::size_t bytes = std::size_t{cfg.pci_batch} * 2;
          for (unsigned k = 0; k < writes; ++k) {
            pci_write_model += ss::count(pci.pio_write(bytes));
          }
          b = now_ns();
          pci_host_ns += b - a;
          pci_writes += writes;
        }
        if (oracle_live()) {
          a = now_ns();
          for (std::size_t k = first; k < cursor[i]; ++k) {
            ref.push_request(i, static_cast<std::uint64_t>(
                                    static_cast<double>(frames[i][k].arrival_ns) /
                                    ptime));
          }
          oracle_ns += now_ns() - a;
        }
      }
      if (cursor[i] >= frames[i].size()) drainable &= ~bit;
    }

    std::uint64_t a = now_ns();
    chip.run_decision_cycle(out);
    std::uint64_t b = now_ns();
    decide_ns += b - a;
    (out.idle ? idle_ns : committed_ns).push_back(clamp32(b - a));
    committed += static_cast<std::uint64_t>(!out.idle);
    idle += static_cast<std::uint64_t>(out.idle);

    if (oracle_live() && !within_serial_horizon(ref)) {
      r.oracle_left_horizon_at = oracle_decisions + 1;
    }
    if (oracle_live()) {
      a = now_ns();
      const ss::dwcs::SwDecision sd = ref.run_decision_cycle();
      chip_dec.idle = out.idle;
      chip_dec.grants.clear();
      for (const hw::Grant& g : out.grants) chip_dec.grants.push_back(g.slot);
      chip_dec.drops.assign(out.drops.begin(), out.drops.end());
      ref_dec.idle = sd.idle;
      ref_dec.grants.clear();
      for (const ss::dwcs::SwGrant& g : sd.grants) {
        ref_dec.grants.push_back(g.stream);
      }
      ref_dec.drops = sd.drops;
      const std::string diff = compare_decision(chip_dec, ref_dec);
      if (!diff.empty()) {
        r.oracle_error = diff + " differ at decision " +
                         std::to_string(oracle_decisions);
      }
      ++oracle_decisions;
      oracle_ns += now_ns() - a;
    }

    for (const hw::SlotId s : out.drops) {
      if (qm.consume(s)) {
        drainable |= std::uint64_t{1} << s;
        ++dropped_late;
        ++transmitted;
      }
    }

    if (out.idle) {
      bool more = false;
      for (std::uint32_t i = 0; i < n; ++i) {
        more = more || cursor[i] < frames[i].size();
      }
      if (!more && transmitted < total) break;
      continue;
    }

    a = now_ns();
    pci_read_model += ss::count(pci.pio_read(out.grants.size()));
    b = now_ns();
    pci_host_ns += b - a;
    ++pci_reads;

    burst.clear();
    for (const hw::Grant& g : out.grants) {
      burst.push_back({g.slot, static_cast<std::uint64_t>(
                                   static_cast<double>(g.emit_vtime) * ptime)});
    }
    burst_records.clear();
    a = now_ns();
    transmitted += te.transmit_block(burst, &burst_records);
    b = now_ns();
    transmit_ns += b - a;
    burst_ns.push_back(clamp32(b - a));
    ++bursts;
    for (const q::TxRecord& rec : burst_records) {
      drainable |= std::uint64_t{1} << rec.stream;
      monitor.record(rec);
    }
    record_ns += now_ns() - b;
  }
  const std::uint64_t loop1 = now_ns();

  // Partial arrival batches are flushed after the clock, as in Endsystem.
  std::uint64_t pci_flush_model = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (batch_fill[i] > 0) {
      pci_flush_model +=
          ss::count(pci.pio_write(std::size_t{batch_fill[i]} * 2));
      ++pci_writes;
    }
  }
  pci_write_model += pci_flush_model;
  monitor.finish();

  Outcome& o = r.out;
  o.offered = total;
  o.completed = transmitted;
  o.dropped_late = dropped_late;
  o.spurious = te.spurious_schedules();
  o.decisions = chip.decision_cycles();
  o.committed = committed;
  o.hw_cycles = chip.hw_cycles();
  o.comparisons = chip.network_comparisons();
  o.pci_ns = pci_write_model + pci_read_model;
  for (std::uint32_t i = 0; i < n; ++i) {
    o.delay_p50_us =
        std::max(o.delay_p50_us, monitor.delay_percentile_est_us(i, 50.0));
    o.delay_p99_us =
        std::max(o.delay_p99_us, monitor.delay_percentile_est_us(i, 99.0));
    o.stream_frames.push_back(monitor.frames(i));
    o.counters.push_back(chip.slot(static_cast<hw::SlotId>(i)).counters());
  }

  // Oracle time is not part of the pipeline: it is taken out of the
  // traced loop's wall time before anything is derived from it.
  const double loop_ns = static_cast<double>(loop1 - loop0 - oracle_ns);
  const auto frames_d = static_cast<double>(transmitted);
  const auto decisions_d = static_cast<double>(committed + idle);
  r.pps = ratio(frames_d, loop_ns * 1e-9);

  m["hw.chip.decide_ns_p50"] = percentile(committed_ns, 50.0);
  m["hw.chip.decide_ns_p99"] = percentile(committed_ns, 99.0);
  m["hw.chip.comparisons_per_decision"] =
      ratio(static_cast<double>(o.comparisons), static_cast<double>(committed));
  m["hw.chip.idle_frac"] = ratio(static_cast<double>(idle), decisions_d);
  if (!idle_ns.empty()) {
    m["hw.chip.idle_decide_ns_p50"] = percentile(idle_ns, 50.0);
  }
  m["hw.chip.push_ns_mean"] =
      ratio(static_cast<double>(push_ns), static_cast<double>(pushes));
  m["hw.chip.decisions_per_frame"] = ratio(decisions_d, frames_d);
  m["hw.chip.busy_share"] = ratio(static_cast<double>(decide_ns), loop_ns);
  m["hw.pci.model_write_ns_per_frame"] =
      ratio(static_cast<double>(pci_write_model), frames_d);
  m["hw.pci.model_read_ns_per_frame"] =
      ratio(static_cast<double>(pci_read_model), frames_d);
  m["hw.pci.transfers_per_frame"] =
      ratio(static_cast<double>(pci_writes + pci_reads), frames_d);
  m["queueing.te.transmit_ns_per_frame"] =
      ratio(static_cast<double>(transmit_ns), frames_d);
  m["queueing.te.burst_ns_p50"] = percentile(burst_ns, 50.0);
  m["queueing.te.burst_ns_p99"] = percentile(burst_ns, 99.0);
  m["queueing.te.frames_per_burst"] =
      ratio(frames_d - static_cast<double>(dropped_late),
            static_cast<double>(bursts));
  m["queueing.qm.produce_ns_mean"] = ratio(static_cast<double>(produce_ns),
                                           static_cast<double>(produce_attempts));
  m["queueing.qm.produce_full_frac"] =
      ratio(static_cast<double>(produce_full),
            static_cast<double>(produce_attempts));
  m["core.monitor.record_ns_per_frame"] =
      ratio(static_cast<double>(record_ns), frames_d);
  const double children = static_cast<double>(
      produce_ns + push_ns + pci_host_ns + decide_ns + transmit_ns + record_ns);
  m["core.loop.self_ns_per_frame"] = ratio(loop_ns - children, frames_d);
  r.oracle_checked = oracle_decisions;
  if (oracle_live() && oracle_decisions != o.decisions) {
    r.oracle_error = "oracle saw " + std::to_string(oracle_decisions) +
                     " decisions, chip " + std::to_string(o.decisions);
  }
  return r;
}

TracedResult run_traced_threaded(const Workload& w) {
  namespace hw = ss::hw;
  namespace q = ss::queueing;
  const ss::core::ThreadedConfig& cfg = w.tcfg;
  const auto n = static_cast<std::uint32_t>(w.streams.size());
  const std::uint64_t per_stream = w.streams.empty() ? 0 : w.streams[0].frames;
  const std::uint64_t total = per_stream * n;
  TracedResult r;
  LayerMetrics& m = r.layers;

  // --- set-up, in ThreadedEndsystem's order.
  hw::SchedulerChip chip(cfg.chip);
  q::QueueManager qm(1000);
  q::LinkModel link(cfg.link_gbps);
  q::TransmissionEngine te(qm, link);
  te.set_record_frames(false);
  std::uint64_t t = now_ns();
  for (std::uint32_t i = 0; i < n; ++i) qm.add_stream(cfg.ring_capacity);
  std::uint64_t t2 = now_ns();
  m["queueing.qm.add_stream_s"] = seconds_between(t, t2);
  t = t2;
  const std::vector<ss::dwcs::StreamRequirement> reqs = w.requirements();
  const std::vector<std::uint32_t> periods = ss::dwcs::fair_share_periods(reqs);
  for (std::uint32_t i = 0; i < n; ++i) {
    chip.load_slot(static_cast<hw::SlotId>(i),
                   ss::dwcs::to_slot_config(reqs[i], periods[i]));
  }
  m["dwcs.admission_s"] = seconds_between(t, now_ns());

  // --- producer thread: round-robin emission, retry on a full ring.
  std::atomic<std::uint64_t> produce_ns_total{0}, attempts_total{0},
      stalls_total{0};
  const std::uint64_t loop0 = now_ns();
  std::thread producer([&] {
    std::vector<std::uint64_t> left(n, per_stream);
    std::vector<std::uint64_t> seq(n, 0);
    std::uint64_t remaining = total, clock = 0;
    std::uint64_t produce_ns = 0, attempts = 0, stalls = 0;
    while (remaining > 0) {
      bool progressed = false;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (left[i] == 0) continue;
        q::Frame f;
        f.stream = i;
        f.bytes = cfg.frame_bytes;
        f.arrival_ns = clock++;
        f.seq = seq[i];
        const std::uint64_t a = now_ns();
        const bool ok = qm.produce(i, f);
        produce_ns += now_ns() - a;
        ++attempts;
        if (ok) {
          ++seq[i];
          --left[i];
          --remaining;
          progressed = true;
        } else {
          ++stalls;
        }
      }
      if (!progressed) std::this_thread::yield();
    }
    produce_ns_total.store(produce_ns);
    attempts_total.store(attempts);
    stalls_total.store(stalls);
  });

  // --- scheduler + TE loop (this thread).
  std::vector<std::uint64_t> announced(n, 0), consumed(n, 0), per_tx(n, 0);
  std::vector<q::BlockGrant> burst;
  std::vector<q::TxRecord> burst_records;
  hw::DecisionOutcome out;
  std::uint64_t transmitted = 0, push_ns = 0, pushes = 0, decide_ns = 0,
                transmit_ns = 0, idle = 0, committed = 0, bursts = 0;
  std::vector<std::uint32_t> committed_ns, idle_ns, burst_ns;
  committed_ns.reserve(total);
  burst_ns.reserve(total);
  const double ptime = ss::packet_time_ns(cfg.frame_bytes, cfg.link_gbps);
  while (transmitted < total) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t arrived = consumed[i] + qm.depth(i);
      if (announced[i] >= arrived) continue;
      const std::uint64_t a = now_ns();
      for (; announced[i] < arrived; ++announced[i]) {
        chip.push_request(static_cast<hw::SlotId>(i));
        ++pushes;
      }
      push_ns += now_ns() - a;
    }
    std::uint64_t a = now_ns();
    chip.run_decision_cycle(out);
    std::uint64_t b = now_ns();
    decide_ns += b - a;
    (out.idle ? idle_ns : committed_ns).push_back(clamp32(b - a));
    for (const hw::SlotId s : out.drops) {
      if (qm.consume(s)) {
        ++consumed[s];
        ++transmitted;
      }
    }
    if (out.idle) {
      ++idle;
      std::this_thread::yield();
      continue;
    }
    ++committed;
    burst.clear();
    for (const hw::Grant& g : out.grants) {
      burst.push_back({g.slot, static_cast<std::uint64_t>(
                                   static_cast<double>(g.emit_vtime) * ptime)});
    }
    burst_records.clear();
    a = now_ns();
    transmitted += te.transmit_block(burst, &burst_records);
    b = now_ns();
    transmit_ns += b - a;
    burst_ns.push_back(clamp32(b - a));
    ++bursts;
    for (const q::TxRecord& rec : burst_records) {
      ++consumed[rec.stream];
      ++per_tx[rec.stream];
    }
  }
  producer.join();
  const std::uint64_t loop1 = now_ns();

  // Same reduced outcome as an untraced threaded rep: per-stream counts.
  Outcome& o = r.out;
  o.offered = total;
  o.completed = transmitted;
  o.spurious = te.spurious_schedules();
  o.stream_frames = per_tx;

  const auto loop_ns = static_cast<double>(loop1 - loop0);
  const auto frames_d = static_cast<double>(transmitted);
  const auto decisions_d = static_cast<double>(committed + idle);
  r.pps = ratio(frames_d, loop_ns * 1e-9);
  m["hw.chip.decide_ns_p50"] = percentile(committed_ns, 50.0);
  m["hw.chip.decide_ns_p99"] = percentile(committed_ns, 99.0);
  m["hw.chip.comparisons_per_decision"] =
      ratio(static_cast<double>(chip.network_comparisons()),
            static_cast<double>(committed));
  m["hw.chip.idle_frac"] = ratio(static_cast<double>(idle), decisions_d);
  if (!idle_ns.empty()) {
    m["hw.chip.idle_decide_ns_p50"] = percentile(idle_ns, 50.0);
  }
  m["hw.chip.push_ns_mean"] =
      ratio(static_cast<double>(push_ns), static_cast<double>(pushes));
  m["hw.chip.decisions_per_frame"] = ratio(decisions_d, frames_d);
  m["hw.chip.busy_share"] = ratio(static_cast<double>(decide_ns), loop_ns);
  m["queueing.te.transmit_ns_per_frame"] =
      ratio(static_cast<double>(transmit_ns), frames_d);
  m["queueing.te.burst_ns_p50"] = percentile(burst_ns, 50.0);
  m["queueing.te.burst_ns_p99"] = percentile(burst_ns, 99.0);
  m["queueing.te.frames_per_burst"] =
      ratio(frames_d, static_cast<double>(bursts));
  const auto attempts = static_cast<double>(attempts_total.load());
  m["queueing.qm.produce_ns_mean"] =
      ratio(static_cast<double>(produce_ns_total.load()), attempts);
  m["queueing.qm.produce_full_frac"] =
      ratio(static_cast<double>(stalls_total.load()), attempts);
  m["core.threaded.producer_stalls_per_frame"] =
      ratio(static_cast<double>(stalls_total.load()), frames_d);
  m["core.threaded.sched_idle_frac"] = ratio(static_cast<double>(idle),
                                             decisions_d);
  m["core.loop.self_ns_per_frame"] =
      ratio(loop_ns - static_cast<double>(push_ns + decide_ns + transmit_ns),
            frames_d);
  return r;
}

}  // namespace perfbench
