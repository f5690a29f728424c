#include "core/threaded_endsystem.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "telemetry/profiler.hpp"

namespace ss::core {

ThreadedEndsystem::ThreadedEndsystem(const ThreadedConfig& cfg)
    : Pipeline(cfg, cfg.frame_bytes), cfg_(cfg) {}

std::uint32_t ThreadedEndsystem::add_stream(
    const dwcs::StreamRequirement& req) {
  return admit(req, cfg_.ring_capacity);
}

void ThreadedEndsystem::request_reload(std::uint32_t stream,
                                       const dwcs::StreamRequirement& req) {
  if (stream >= reqs_.size()) {
    throw std::invalid_argument(
        "ThreadedEndsystem::request_reload: unknown stream");
  }
  {
    const std::lock_guard<std::mutex> lock(reload_mu_);
    // The latest requirement supersedes a still-pending one in place and
    // keeps its post time, so a batch holds at most one entry per stream.
    const auto it = std::find_if(
        pending_reloads_.begin(), pending_reloads_.end(),
        [stream](const PendingReload& pr) { return pr.stream == stream; });
    if (it != pending_reloads_.end()) {
      it->req = req;
    } else {
      pending_reloads_.push_back(
          {stream, req, std::chrono::steady_clock::now()});
    }
  }
  reload_pending_.store(true, std::memory_order_release);
}

ThreadedReport ThreadedEndsystem::run(std::uint64_t frames_per_stream) {
  const auto n = static_cast<std::uint32_t>(reqs_.size());
  load();
  telemetry::EndsystemMetrics* const em =
      cfg_.metrics ? &es_metrics_ : nullptr;

  ThreadedReport rep{};
  rep.per_stream_tx.assign(n, 0);
  std::atomic<bool> producer_done{false};
  std::atomic<std::uint64_t> produced{0};
  std::atomic<std::uint64_t> full_stalls{0};

  const auto t0 = std::chrono::steady_clock::now();

  // Producer: round-robin frame emission, retrying (not blocking) on full
  // rings — the paper's producer never takes a lock.
  std::thread producer([&] {
    std::vector<std::uint64_t> left(n, frames_per_stream);
    std::vector<std::uint64_t> seq(n, 0);
    std::uint64_t remaining = frames_per_stream * n;
    std::uint64_t clock = 0;
    while (remaining > 0) {
      bool progressed = false;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (left[i] == 0) continue;
        queueing::Frame f;
        f.stream = i;
        f.bytes = cfg_.frame_bytes;
        f.arrival_ns = clock++;
        f.seq = seq[i];
        if (qm_.produce(i, f)) {
          ++seq[i];
          --left[i];
          --remaining;
          produced.fetch_add(1, std::memory_order_relaxed);
          progressed = true;
        } else {
          full_stalls.fetch_add(1, std::memory_order_relaxed);
          if (cfg_.audit != nullptr) {
            cfg_.audit->audit().note_overflow(i);
          }
        }
      }
      if (!progressed) std::this_thread::yield();
    }
    producer_done.store(true, std::memory_order_release);
  });

  // Scheduler + Transmission Engine (this thread).  New arrivals are
  // discovered from ring occupancy: arrived = consumed + size.
  std::vector<std::uint64_t> announced(n, 0);
  std::vector<std::uint64_t> consumed(n, 0);
  const std::uint64_t total = frames_per_stream * n;
  std::uint64_t transmitted = 0;
  std::vector<queueing::TxRecord> burst_records;
  hw::DecisionOutcome out;  // grant/block/drop capacity reused per cycle
  while (transmitted < total) {
    if (em) em->loop_iterations->add(1);
    // Commit any control-plane re-LOADs between decision cycles.  The
    // chip forgets the slot's backlog, so the announcement watermark is
    // rewound to the consumption count — every frame still in the ring is
    // re-announced to the freshly loaded slot on the next discovery pass.
    if (reload_pending_.load(std::memory_order_acquire)) {
      SS_PROF(cfg_.profiler, telemetry::ProfStage::kReloadCommit);
      std::vector<PendingReload> batch;
      {
        const std::lock_guard<std::mutex> lock(reload_mu_);
        batch.swap(pending_reloads_);
        reload_pending_.store(false, std::memory_order_relaxed);
      }
      for (const PendingReload& pr : batch) {
        reload(pr.stream, pr.req);
        announced[pr.stream] = consumed[pr.stream];
        ++rep.reloads_applied;
        if (em) {
          em->reloads->add(1);
          const auto waited = std::chrono::steady_clock::now() - pr.posted;
          em->reload_latency_ns->observe(static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
                  .count()));
        }
      }
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t arrived = consumed[i] + qm_.depth(i);
      if (em && announced[i] < arrived) {
        em->arrivals_delivered->add(arrived - announced[i]);
      }
      while (announced[i] < arrived) {
        // Stamped at the current virtual time, as the chip's
        // default-arrival push does.
        guard_.push_request(static_cast<hw::SlotId>(i), guard_.vtime());
        ++announced[i];
      }
    }
    guard_.run_decision_cycle(out);
    for (const hw::SlotId s : out.drops) {
      if (qm_.consume(s)) {
        ++consumed[s];
        ++transmitted;  // dropped-late frames are complete for accounting
        if (em) {
          em->dropped_late->add(1);
          em->frames_completed->add(1);
        }
      }
    }
    if (out.idle) {
      // Nothing schedulable yet: let the producer run (matters on a
      // single hardware thread; a real deployment pins the two loops to
      // separate cores).
      std::this_thread::yield();
      continue;
    }
    // Drain the whole grant burst in one Transmission Engine pass, one
    // ring pop per grant.
    transmitted += transmit_grants(out, burst_records);
    for (const queueing::TxRecord& rec : burst_records) {
      ++consumed[rec.stream];
      ++rep.per_stream_tx[rec.stream];
    }
  }
  producer.join();
  const auto t1 = std::chrono::steady_clock::now();

  rep.frames_produced = produced.load();
  rep.frames_transmitted = transmitted;
  rep.producer_full_stalls = full_stalls.load();
  rep.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  rep.pps = rep.wall_seconds > 0
                ? static_cast<double>(transmitted) / rep.wall_seconds
                : 0.0;
  report_faults(rep);
  return rep;
}

}  // namespace ss::core
