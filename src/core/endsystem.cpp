#include "core/endsystem.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "telemetry/profiler.hpp"
#include "util/sim_time.hpp"

namespace ss::core {

namespace {

// Frames are generated per stream this many at a time, so a run of any
// length holds one chunk per stream rather than every frame.  It is at
// least the deepest per-stream backlog of the backlog benchmarks (3,200
// frames), so those runs still generate every frame before the clock.
constexpr std::uint64_t kChunkFrames = 4096;

}  // namespace

Endsystem::Endsystem(const EndsystemConfig& cfg)
    : Pipeline(cfg, cfg.ref_frame_bytes),
      cfg_(cfg),
      pci_(cfg.pci) {
  if (cfg.pci_batch == 0) {
    throw std::invalid_argument(
        "Endsystem: pci_batch must carry at least one arrival offset");
  }
  pci_.attach_faults(fault_plan_.get());
}

std::uint32_t Endsystem::add_stream(const dwcs::StreamRequirement& req,
                                    std::unique_ptr<queueing::TrafficGen> gen,
                                    std::uint32_t frame_bytes) {
  const std::uint32_t id = admit(req, cfg_.ring_capacity);
  streams_.push_back({std::move(gen), frame_bytes});
  admitted_ = false;
  return id;
}

void Endsystem::finalize_admission() {
  load();
  monitor_ = std::make_unique<QosMonitor>(
      static_cast<std::uint32_t>(streams_.size()), cfg_.bw_window_ns);
  monitor_->set_keep_series(cfg_.keep_series);
  monitor_->set_delay_histogram(cfg_.delay_histogram);
  if (cfg_.metrics) {
    pci_metrics_ = telemetry::PciMetrics::create(*cfg_.metrics);
    pci_.attach_metrics(&pci_metrics_);
    if (cfg_.frame_trace) cfg_.frame_trace->bind_registry(*cfg_.metrics);
  }
  admitted_ = true;
}

double Endsystem::utilization() const {
  const auto periods = dwcs::fair_share_periods(reqs_);
  double u = 0.0;
  for (std::uint32_t i = 0; i < reqs_.size(); ++i) {
    if (reqs_[i].kind == dwcs::RequirementKind::kStaticPriority) continue;
    const auto p = (reqs_[i].kind == dwcs::RequirementKind::kFairShare)
                       ? periods[i]
                       : reqs_[i].period;
    if (p > 0) u += 1.0 / static_cast<double>(p);
  }
  return u;
}

EndsystemReport Endsystem::run(std::uint64_t frames_per_stream) {
  return run(std::vector<std::uint64_t>(streams_.size(), frames_per_stream));
}

EndsystemReport Endsystem::run(
    const std::vector<std::uint64_t>& frames_per_stream) {
  if (frames_per_stream.size() != streams_.size()) {
    throw std::invalid_argument(
        "Endsystem::run: need exactly one frame count per stream");
  }
  if (!admitted_) finalize_admission();
  EndsystemReport rep{};

  // Generate each stream's frames one chunk at a time (the paper
  // transfers 64000 arrival times per queue up front; generation cost
  // stays outside the timed loop).  The first chunks are made before the
  // clock starts; a stream's next chunk is made, off the clock, once the
  // drain loop has delivered the last frame of its current one.
  struct Feed {
    std::vector<queueing::Frame> chunk;
    std::size_t cursor = 0;        ///< next frame of `chunk` to deliver
    std::uint64_t generated = 0;   ///< frames generated so far (next seq)
  };
  std::vector<Feed> feeds(streams_.size());
  const auto generate_chunk = [&](std::uint32_t i) {
    Feed& fd = feeds[i];
    const std::uint64_t n =
        std::min(kChunkFrames, frames_per_stream[i] - fd.generated);
    fd.chunk = streams_[i].gen->generate(i, n, streams_[i].frame_bytes,
                                         fd.generated);
    fd.cursor = 0;
    fd.generated += n;
  };
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < streams_.size(); ++i) {
    generate_chunk(i);
    total += frames_per_stream[i];
  }
  std::uint64_t undelivered = total;
  std::chrono::steady_clock::duration refill_time{};
  std::vector<unsigned> batch_fill(streams_.size(), 0);
  std::uint64_t transmitted = 0;
  std::uint64_t pci_ns = 0;
  const std::uint64_t decisions0 = guard_.decision_cycles();

  // Fallible PCI accounting: with the fault plane enabled every transfer
  // is driven through the recovery policy (failed attempts still burn bus
  // time, retries add backoff); exhaustion abandons the hardware path.
  // Post-failover the software path crosses no bus, so transfers cost 0.
  robust::RecoveryStats pci_rstats{};
  const auto pci_xfer_ns = [&](std::size_t bytes, bool read) {
    SS_PROF(cfg_.profiler, telemetry::ProfStage::kPci);
    if (!fault_plan_) {
      return count(read ? pci_.pio_read(bytes) : pci_.pio_write(bytes));
    }
    if (guard_.failed_over()) return std::uint64_t{0};
    const robust::RetryResult r = robust::with_retry(
        robust::kRecoveryPolicy, pci_rstats, nullptr,
        cfg_.metrics ? &robust_metrics_ : nullptr, [&] {
          return read ? pci_.try_pio_read(bytes) : pci_.try_pio_write(bytes);
        });
    if (!r.ok) guard_.force_failover();
    return count(r.elapsed);
  };
  // Block-drain staging, reused every decision cycle so the hot loop does
  // no per-cycle allocation once the vectors reach the block size.
  std::vector<queueing::TxRecord> burst_records;
  hw::DecisionOutcome out;  // grant/block/drop capacity reused per cycle
  // Drainable-stream mask: bit i stays set while stream i may still
  // deliver frames — undelivered frames remain AND the ring has space.
  // A short produce_n() clears the bit (ring full) until a transmit/drop
  // consumes a frame (the only way space reappears); delivering a
  // stream's last frame clears it for good.  The per-decision delivery
  // scan then walks only the set bits instead of all N streams — at
  // steady state (every ring full) that is the one or two streams the
  // last grant burst freed.
  std::uint64_t drainable = 0;
  for (std::uint32_t i = 0; i < streams_.size(); ++i) {
    if (frames_per_stream[i] > 0) drainable |= std::uint64_t{1} << i;
  }
  // Frame-lifecycle bookkeeping: per-stream FIFO position of the next
  // frame to leave the ring (transmit or drop), matching the frame's seq.
  telemetry::FrameTrace* const ft = cfg_.frame_trace;
  telemetry::EndsystemMetrics* const em =
      cfg_.metrics ? &es_metrics_ : nullptr;
  std::vector<std::uint64_t> consumed_seq(streams_.size(), 0);

  const auto t0 = std::chrono::steady_clock::now();
  while (transmitted < total) {
    if (em) em->loop_iterations->add(1);
    const auto now_ns = static_cast<std::uint64_t>(
        static_cast<double>(guard_.vtime()) * packet_time_ns_);

    // Deliver due arrivals: each stream's due frames into its QM ring as
    // one copy, their arrival offsets to the card in fixed-size PIO
    // batches.
    {
      SS_PROF(cfg_.profiler, telemetry::ProfStage::kQueueDrain);
      for (std::uint64_t scan = drainable; scan != 0; scan &= scan - 1) {
        const auto i = static_cast<std::uint32_t>(std::countr_zero(scan));
        Feed& fd = feeds[i];
        while (fd.cursor < fd.chunk.size()) {
          // Arrivals are non-decreasing, so the due frames are a prefix.
          const queueing::Frame* const due = fd.chunk.data() + fd.cursor;
          const std::size_t left = fd.chunk.size() - fd.cursor;
          std::size_t n_due = 0;
          while (n_due < left && due[n_due].arrival_ns <= now_ns) ++n_due;
          if (n_due == 0) break;
          const std::size_t n = qm_.produce_n(i, due, n_due);
          if (em) em->arrivals_delivered->add(n);
          // Requests go to the card in segments that end on a PIO batch
          // boundary, so every transfer (its fault draws, the failover it
          // may force) falls between the same two requests as it would
          // frame by frame.  Only a request into an idle slot latches its
          // arrival, so a segment carries its first frame's offset.
          for (std::size_t k = 0; k < n;) {
            const std::size_t seg =
                std::min<std::size_t>(n - k, cfg_.pci_batch - batch_fill[i]);
            if (ft) {
              for (std::size_t j = k; j < k + seg; ++j) {
                ft->arrival(i, due[j].seq, due[j].arrival_ns);
                ft->enqueue(i, due[j].seq, now_ns);
              }
            }
            const auto off = static_cast<std::uint64_t>(
                static_cast<double>(due[k].arrival_ns) / packet_time_ns_);
            guard_.push_requests(static_cast<hw::SlotId>(i), off,
                                 static_cast<std::uint32_t>(seg));
            k += seg;
            batch_fill[i] += static_cast<unsigned>(seg);
            if (batch_fill[i] == cfg_.pci_batch) {
              batch_fill[i] = 0;
              const std::size_t bytes = std::size_t{cfg_.pci_batch} * 2;
              const std::uint64_t xfer_ns = pci_xfer_ns(bytes, false);
              pci_ns += xfer_ns;
              if (ft) {
                ft->pci(telemetry::PciDir::kWrite, now_ns, xfer_ns,
                        static_cast<std::uint32_t>(bytes));
              }
            }
          }
          undelivered -= n;
          fd.cursor += n;
          if (n < n_due) {
            // Ring full: retry once a frame leaves.  Note the overflow so
            // a window violation committed this cycle is attributed to it.
            if (cfg_.audit) cfg_.audit->audit().note_overflow(i);
            drainable &= ~(std::uint64_t{1} << i);
            break;
          }
          if (fd.cursor < fd.chunk.size()) break;  // the next one is not due
          if (fd.generated < frames_per_stream[i]) {
            // `due` dangles from here: the next chunk replaces this one.
            const auto r0 = std::chrono::steady_clock::now();
            generate_chunk(i);
            refill_time += std::chrono::steady_clock::now() - r0;
          }
        }
        if (fd.cursor == fd.chunk.size()) {
          drainable &= ~(std::uint64_t{1} << i);  // every frame delivered
        }
      }
    }

    guard_.run_decision_cycle(out);
    rep.committed_decisions += static_cast<std::uint64_t>(!out.idle);

    // Droppable slots that discarded a late head on the card: the systems
    // software discards the matching host frame (it never reaches the
    // link, but it is complete for accounting purposes).
    for (const hw::SlotId s : out.drops) {
      if (qm_.consume(s)) {
        drainable |= std::uint64_t{1} << s;
        ++rep.dropped_late;
        ++transmitted;
        if (em) {
          em->dropped_late->add(1);
          em->frames_completed->add(1);
        }
        if (ft) ft->drop(s, consumed_seq[s]++, now_ns);
      }
    }

    if (out.idle) {
      // All rings drained or nothing arrived yet.  If no future arrivals
      // remain either, the run is over (guards against a stall if counts
      // ever disagree).
      if (undelivered == 0 && transmitted < total) break;
      continue;  // vtime advanced one packet-time
    }

    // Scheduled Stream IDs come back over PCI: one PIO read covers the
    // whole grant vector (IDs are 5 bits; a bus word carries four), so the
    // transfer cost of a K-deep batch is amortized K ways.
    const std::uint64_t read_ns = pci_xfer_ns(out.grants.size(), true);
    pci_ns += read_ns;
    if (ft) {
      ft->pci(telemetry::PciDir::kRead, now_ns, read_ns,
              static_cast<std::uint32_t>(out.grants.size()));
    }

    // Drain the whole grant burst in one Transmission Engine pass, then
    // walk its records once: each sent frame frees a ring slot, reaches
    // the QoS monitor and, when tracing, closes its frame span.
    transmitted += transmit_grants(out, burst_records);
    const std::uint64_t dcycle = ft ? guard_.decision_cycles() : 0;
    for (std::size_t bi = 0; bi < burst_records.size(); ++bi) {
      const queueing::TxRecord& rec = burst_records[bi];
      drainable |= std::uint64_t{1} << rec.stream;
      monitor_->record(rec);
      if (em) {
        em->frame_delay_us->observe(static_cast<double>(rec.delay_ns()) /
                                    1000.0);
      }
      if (ft) {
        const std::uint64_t seq = consumed_seq[rec.stream]++;
        ft->grant(rec.stream, seq, now_ns, dcycle,
                  static_cast<std::uint32_t>(bi));
        const auto ser_ns = static_cast<std::uint64_t>(
            static_cast<double>(rec.bytes) * 8.0 / cfg_.link_gbps);
        const std::uint64_t start = rec.departure_ns > ser_ns
                                        ? rec.departure_ns - ser_ns
                                        : rec.departure_ns;
        ft->transmit(rec.stream, seq, start, ser_ns, rec.bytes);
      }
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  // Flush any partially filled arrival batches (accounting completeness).
  for (std::uint32_t i = 0; i < streams_.size(); ++i) {
    if (batch_fill[i] > 0) {
      pci_ns += pci_xfer_ns(std::size_t{batch_fill[i]} * 2, false);
    }
  }

  monitor_->finish();
  rep.frames = transmitted;
  rep.link_ns = link_.busy_until_ns();
  rep.host_seconds =
      std::chrono::duration<double>(t1 - t0 - refill_time).count();
  rep.pci_ns = pci_ns;
  rep.decision_cycles = guard_.decision_cycles() - decisions0;
  rep.spurious_schedules = te_.spurious_schedules();
  report_faults(rep);
  rep.robust.faults += pci_rstats.faults;
  rep.robust.retries += pci_rstats.retries;
  rep.robust.recoveries += pci_rstats.recoveries;
  rep.robust.exhausted += pci_rstats.exhausted;
  rep.robust.backoff_ns += pci_rstats.backoff_ns;
  if (rep.host_seconds > 0) {
    rep.pps_excl_pci = static_cast<double>(transmitted) / rep.host_seconds;
    rep.pps_incl_pci =
        static_cast<double>(transmitted) /
        (rep.host_seconds + static_cast<double>(pci_ns) * 1e-9);
  }
  return rep;
}

}  // namespace ss::core
