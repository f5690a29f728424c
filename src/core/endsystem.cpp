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
      pci_(cfg.pci),
      bank_(1 << 16, Nanos{2000}) {
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
    sram_metrics_ = telemetry::SramMetrics::create(*cfg_.metrics);
    pci_.attach_metrics(&pci_metrics_);
    bank_.attach_metrics(&sram_metrics_);
    if (cfg_.frame_trace) cfg_.frame_trace->bind_registry(*cfg_.metrics);
  }
  if (cfg_.use_streaming_unit) {
    streaming_ = std::make_unique<hw::StreamingUnit>(
        cfg_.streaming, pci_, bank_,
        static_cast<std::uint32_t>(streams_.size()));
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
      if (read) return count(pci_.pio_read(bytes));
      return count(cfg_.dma_bulk ? pci_.dma_transfer(bytes)
                                 : pci_.pio_write(bytes));
    }
    if (guard_.failed_over()) return std::uint64_t{0};
    const robust::RetryResult r = robust::with_retry(
        cfg_.recovery, pci_rstats, nullptr,
        cfg_.metrics ? &robust_metrics_ : nullptr, [&] {
          if (read) return pci_.try_pio_read(bytes);
          return cfg_.dma_bulk ? pci_.try_dma_transfer(bytes)
                               : pci_.try_pio_write(bytes);
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
  // A failed produce() clears the bit (ring full) until a transmit/drop
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
  SS_TELEM(telemetry::FrameTrace* const ft = cfg_.frame_trace;
           telemetry::EndsystemMetrics* const em =
               cfg_.metrics ? &es_metrics_ : nullptr;
           std::vector<std::uint64_t> consumed_seq(streams_.size(), 0));

  const auto t0 = std::chrono::steady_clock::now();
  while (transmitted < total) {
    SS_TELEM(if (em) em->loop_iterations->add(1));
    const auto now_ns = static_cast<std::uint64_t>(
        static_cast<double>(guard_.vtime()) * packet_time_ns_);

    // Deliver due arrivals: frame into the QM ring, arrival offset to the
    // card — either through the Streaming unit's watermark machinery or
    // via fixed-size batch accounting.
    {
      SS_PROF(cfg_.profiler, telemetry::ProfStage::kQueueDrain);
      // Streaming-unit runs keep the full per-stream scan (the watermark
      // refill machinery must run even for streams whose ring is full);
      // the fixed-batch path walks only the drainable bits.
      std::uint64_t scan =
          streaming_ ? (std::uint64_t{1} << streams_.size()) - 1 : drainable;
      for (; scan != 0; scan &= scan - 1) {
        const auto i = static_cast<std::uint32_t>(std::countr_zero(scan));
        Feed& fd = feeds[i];
        while (fd.cursor < fd.chunk.size()) {
          const queueing::Frame& f = fd.chunk[fd.cursor];
          if (f.arrival_ns > now_ns) break;
          if (!qm_.produce(i, f)) {
            // Ring full: retry once a frame leaves.  Note the overflow so
            // a window violation committed this cycle is attributed to it.
            SS_TELEM(if (cfg_.audit) cfg_.audit->audit().note_overflow(i));
            drainable &= ~(std::uint64_t{1} << i);
            break;
          }
          SS_TELEM(if (em) em->arrivals_delivered->add(1);
                   if (ft) {
                     ft->arrival(i, f.seq, f.arrival_ns);
                     ft->enqueue(i, f.seq, now_ns);
                   });
          if (!streaming_) {  // else the unit moves the offsets below
            const auto off = static_cast<std::uint64_t>(
                static_cast<double>(f.arrival_ns) / packet_time_ns_);
            guard_.push_request(static_cast<hw::SlotId>(i), off);
            if (++batch_fill[i] >= cfg_.pci_batch) {
              batch_fill[i] = 0;
              const std::size_t bytes = std::size_t{cfg_.pci_batch} * 2;
              const std::uint64_t xfer_ns = pci_xfer_ns(bytes, false);
              pci_ns += xfer_ns;
              SS_TELEM(if (ft) {
                ft->pci(cfg_.dma_bulk ? telemetry::PciDir::kDma
                                      : telemetry::PciDir::kWrite,
                        now_ns, xfer_ns, static_cast<std::uint32_t>(bytes));
              });
            }
          }
          --undelivered;
          if (++fd.cursor == fd.chunk.size() &&
              fd.generated < frames_per_stream[i]) {
            // `f` dangles from here: the next chunk replaces this one.
            const auto r0 = std::chrono::steady_clock::now();
            generate_chunk(i);
            refill_time += std::chrono::steady_clock::now() - r0;
          }
        }
        if (fd.cursor == fd.chunk.size()) {
          drainable &= ~(std::uint64_t{1} << i);  // every frame delivered
        }
        if (streaming_) {
          // Watermark-driven refill; the scheduler only sees requests whose
          // offsets physically reached the card queue.
          if (streaming_->needs_refill(i)) streaming_->refill(i, qm_);
          std::uint16_t off16;
          while (streaming_->pop_arrival(i, off16)) {
            guard_.push_request(static_cast<hw::SlotId>(i), off16);
          }
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
        SS_TELEM(if (em) {
          em->dropped_late->add(1);
          em->frames_completed->add(1);
        }
        if (ft) ft->drop(s, consumed_seq[s]++, now_ns));
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
    SS_TELEM(if (ft) {
      ft->pci(telemetry::PciDir::kRead, now_ns, read_ns,
              static_cast<std::uint32_t>(out.grants.size()));
    });

    // Drain the whole grant burst in one Transmission Engine pass.
    transmitted += transmit_grants(out, burst_records);
    SS_TELEM(if (ft) {
      const std::uint64_t dcycle = guard_.decision_cycles();
      for (std::size_t bi = 0; bi < burst_records.size(); ++bi) {
        const queueing::TxRecord& rec = burst_records[bi];
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
    });
    for (const queueing::TxRecord& rec : burst_records) {
      drainable |= std::uint64_t{1} << rec.stream;
      monitor_->record(rec);
      SS_TELEM(if (em) {
        em->frame_delay_us->observe(static_cast<double>(rec.delay_ns()) /
                                    1000.0);
      });
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  // Flush any partially filled arrival batches (accounting completeness);
  // streaming-unit runs account transfers as they happen instead.
  if (streaming_) {
    pci_ns += streaming_->stats().transfer_ns;
  } else {
    for (std::uint32_t i = 0; i < streams_.size(); ++i) {
      if (batch_fill[i] > 0) {
        const std::size_t bytes = std::size_t{batch_fill[i]} * 2;
        pci_ns += pci_xfer_ns(bytes, false);
      }
    }
  }

  monitor_->finish();
  // Import the audit layer's burn attribution so slo_report can render
  // per-cause violation counts and burn rates without a new dependency.
  SS_TELEM(if (cfg_.audit != nullptr) {
    const telemetry::DecisionAudit& da = cfg_.audit->audit();
    for (std::uint32_t s = 0; s < streams_.size(); ++s) {
      for (std::size_t c = 0; c < telemetry::kBurnCauses; ++c) {
        monitor_->add_violation_cause(s, c, da.burn(s, c));
      }
    }
  });
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
