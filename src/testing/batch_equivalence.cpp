#include "testing/batch_equivalence.hpp"

#include <algorithm>
#include <string>

#include "queueing/link_model.hpp"
#include "queueing/queue_manager.hpp"
#include "queueing/transmission_engine.hpp"

namespace ss::testing {
namespace {

std::string stream_tag(unsigned i) {
  return "stream " + std::to_string(i) + ": ";
}

/// Strictly-increasing check; returns false on the first violation.
bool increasing(const std::vector<std::uint64_t>& v) {
  for (std::size_t k = 1; k < v.size(); ++k) {
    if (v[k] <= v[k - 1]) return false;
  }
  return true;
}

}  // namespace

PipelineRun run_block_pipeline(const Scenario& sc, unsigned batch_depth) {
  const unsigned n = sc.fabric.slots;
  PipelineRun run;
  run.batch_depth = batch_depth;
  run.produced.assign(n, 0);
  run.tx_seq.assign(n, {});
  run.drop_seq.assign(n, {});
  run.leftover.assign(n, 0);

  hw::ChipConfig hc = to_chip_config(sc.fabric);
  hc.batch_depth = batch_depth;
  hw::SchedulerChip chip(hc);
  queueing::QueueManager qm(1000);
  queueing::LinkModel link(1.0);
  queueing::TransmissionEngine te(qm, link);

  for (unsigned i = 0; i < n; ++i) {
    chip.load_slot(static_cast<hw::SlotId>(i),
                   to_slot_config(sc.fabric.discipline, sc.streams[i]));
    // Rings sized past any fuzzer event budget: a full ring would make the
    // chip's backlog run ahead of the host queue and muddy conservation.
    qm.add_stream(8192);
  }

  std::vector<std::uint64_t> seq(n, 0);
  std::vector<std::uint64_t> tag_clock(n, 0);
  std::uint64_t global_tag_clock = 0;
  std::vector<queueing::BlockGrant> burst;
  std::vector<queueing::TxRecord> burst_records;
  hw::DecisionOutcome out;  // reused across kDecide events

  for (const Event& e : sc.events) {
    switch (e.kind) {
      case EventKind::kArrival:
      case EventKind::kTaggedArrival: {
        const std::uint32_t s = e.stream;
        queueing::Frame f;
        f.stream = s;
        f.bytes = 64;
        f.seq = seq[s];
        // The sequence number doubles as the arrival stamp so TxRecord
        // (which carries arrival_ns but not seq) identifies the exact
        // frame the ring surrendered — the check reads the pipeline's own
        // output, not shadow state.
        f.arrival_ns = seq[s];
        ++seq[s];
        if (!qm.produce(s, f)) break;  // ring full: arrival never admitted
        ++run.produced[s];
        const std::uint64_t arr = chip.vtime();
        if (sc.fabric.discipline == Discipline::kFairTag) {
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
          chip.push_tagged_request(static_cast<hw::SlotId>(s),
                                   hw::Deadline{tag}, hw::Arrival{arr});
        } else {
          chip.push_request(static_cast<hw::SlotId>(s), hw::Arrival{arr});
        }
        break;
      }

      case EventKind::kReconfig:
        chip.load_slot(static_cast<hw::SlotId>(e.stream),
                       to_slot_config(sc.fabric.discipline, e.setup));
        break;

      case EventKind::kDecide: {
        chip.run_decision_cycle(out);
        ++run.decisions;
        for (const hw::SlotId s : out.drops) {
          if (const auto f = qm.consume(s)) {
            run.drop_seq[s].push_back(f->seq);
          }
        }
        if (out.idle) break;
        run.grants += out.grants.size();
        burst.clear();
        for (const hw::Grant& g : out.grants) {
          burst.push_back({g.slot, g.emit_vtime});
        }
        burst_records.clear();
        te.transmit_block(burst, &burst_records);
        for (const queueing::TxRecord& rec : burst_records) {
          run.tx_seq[rec.stream].push_back(rec.arrival_ns);
        }
        break;
      }
    }
  }

  run.spurious = te.spurious_schedules();
  for (unsigned i = 0; i < n; ++i) run.leftover[i] = qm.depth(i);
  return run;
}

std::string check_run_integrity(const Scenario& sc, const PipelineRun& run) {
  for (unsigned i = 0; i < sc.fabric.slots; ++i) {
    const auto& tx = run.tx_seq[i];
    const auto& dr = run.drop_seq[i];
    if (!increasing(tx)) {
      return stream_tag(i) + "transmit order not strictly increasing " +
             "(depth " + std::to_string(run.batch_depth) + ")";
    }
    if (!increasing(dr)) {
      return stream_tag(i) + "drop order not strictly increasing";
    }
    // Disjoint + jointly contiguous from 0: the ring is FIFO, so the
    // merged consumption stream must be exactly 0..k-1 with no holes.
    std::vector<std::uint64_t> merged;
    merged.reserve(tx.size() + dr.size());
    std::merge(tx.begin(), tx.end(), dr.begin(), dr.end(),
               std::back_inserter(merged));
    for (std::size_t k = 0; k < merged.size(); ++k) {
      if (merged[k] != k) {
        return stream_tag(i) + "consumed frames not the FIFO prefix (saw " +
               std::to_string(merged[k]) + " at position " +
               std::to_string(k) + ")";
      }
    }
    if (merged.size() + run.leftover[i] != run.produced[i]) {
      return stream_tag(i) + "conservation: produced=" +
             std::to_string(run.produced[i]) + " consumed=" +
             std::to_string(merged.size()) + " leftover=" +
             std::to_string(run.leftover[i]);
    }
  }
  return {};
}

std::string check_batch_equivalence(const Scenario& sc, const PipelineRun& a,
                                    const PipelineRun& b) {
  if (auto err = check_run_integrity(sc, a); !err.empty()) return err;
  if (auto err = check_run_integrity(sc, b); !err.empty()) return err;

  // A stream is exempt from the cross-depth clause if it is droppable at
  // any point in the run (initially or via re-LOAD): expiry depends on the
  // virtual-time trajectory, which batching legitimately changes.
  std::vector<bool> droppable(sc.fabric.slots);
  for (unsigned i = 0; i < sc.fabric.slots; ++i) {
    droppable[i] = sc.streams[i].droppable;
  }
  for (const Event& e : sc.events) {
    if (e.kind == EventKind::kReconfig && e.setup.droppable) {
      droppable[e.stream] = true;
    }
  }

  for (unsigned i = 0; i < sc.fabric.slots; ++i) {
    if (droppable[i]) continue;
    const auto& ta = a.tx_seq[i];
    const auto& tb = b.tx_seq[i];
    const auto& shorter = ta.size() <= tb.size() ? ta : tb;
    const auto& longer = ta.size() <= tb.size() ? tb : ta;
    if (!std::equal(shorter.begin(), shorter.end(), longer.begin())) {
      return stream_tag(i) + "batched transmit order is not a prefix of " +
             "the winner-only order (depths " + std::to_string(a.batch_depth) +
             " vs " + std::to_string(b.batch_depth) + ")";
    }
  }
  return {};
}

}  // namespace ss::testing
