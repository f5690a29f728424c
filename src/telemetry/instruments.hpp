// instruments.hpp — per-layer metric bundles.
//
// Each pipeline layer (chip, PCI, SRAM, queue manager, transmission
// engine, endsystem loop) attaches one of these plain structs of
// pre-resolved metric handles.  create() registers the layer's canonical
// names (DESIGN.md §9 naming scheme) against a MetricsRegistry once, at
// attach time; the hot path then touches only the lock-free handles.
// create() is idempotent per registry — re-attaching resolves to the same
// underlying metrics, so several runs can accumulate into one registry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace ss::telemetry {

/// hw::SchedulerChip — decisions, grants/drops, FSM phase cycles, shuffle
/// network activity and block reuse.
struct ChipMetrics {
  Counter* decisions = nullptr;       ///< chip.decision_cycles
  Counter* idle_decisions = nullptr;  ///< chip.idle_decision_cycles
  Counter* grants = nullptr;          ///< chip.grants
  Counter* drops = nullptr;           ///< chip.drops
  Counter* circulations = nullptr;    ///< chip.circulations
  Counter* hw_cycles = nullptr;       ///< chip.hw_cycles
  Counter* load_cycles = nullptr;     ///< chip.phase.load_cycles
  Counter* schedule_cycles = nullptr; ///< chip.phase.schedule_cycles
  Counter* update_cycles = nullptr;   ///< chip.phase.update_cycles
  Counter* output_cycles = nullptr;   ///< chip.phase.output_cycles
  Counter* net_passes = nullptr;      ///< chip.network.passes
  Counter* net_reuses = nullptr;      ///< chip.network.reuses
  Counter* net_comparisons = nullptr; ///< chip.network.comparisons
  Histogram* block_size = nullptr;    ///< chip.block_size (pending lanes)

  static ChipMetrics create(MetricsRegistry& reg) {
    ChipMetrics m;
    m.decisions = &reg.counter("chip.decision_cycles",
                               "completed decision cycles");
    m.idle_decisions = &reg.counter("chip.idle_decision_cycles",
                                    "decision cycles with no backlog");
    m.grants = &reg.counter("chip.grants", "frames granted");
    m.drops = &reg.counter("chip.drops", "late droppable heads discarded");
    m.circulations =
        &reg.counter("chip.circulations", "slot IDs circulated for the "
                                          "winner window adjustment");
    m.hw_cycles = &reg.counter("chip.hw_cycles", "hardware cycles consumed");
    m.load_cycles =
        &reg.counter("chip.phase.load_cycles", "FSM LOAD phase cycles");
    m.schedule_cycles = &reg.counter("chip.phase.schedule_cycles",
                                     "FSM SCHEDULE phase cycles");
    m.update_cycles = &reg.counter("chip.phase.update_cycles",
                                   "FSM PRIORITY_UPDATE phase cycles");
    m.output_cycles =
        &reg.counter("chip.phase.output_cycles", "FSM OUTPUT phase cycles");
    m.net_passes =
        &reg.counter("chip.network.passes", "shuffle network passes run");
    m.net_reuses = &reg.counter("chip.network.reuses",
                                "decision cycles that re-placed dirty "
                                "lanes in the previous sort");
    m.net_comparisons = &reg.counter("chip.network.comparisons",
                                     "comparator evaluations executed");
    m.block_size = &reg.histogram("chip.block_size", 0.0, 33.0, 33, false,
                                  "pending lanes per non-idle decision");
    return m;
  }
};

/// hw::PciModel — transfer counts, bytes moved, modeled bus occupancy.
struct PciMetrics {
  Counter* pio_writes = nullptr;    ///< pci.pio_writes
  Counter* pio_reads = nullptr;     ///< pci.pio_reads
  Counter* dma_transfers = nullptr; ///< pci.dma_transfers
  Counter* bytes = nullptr;         ///< pci.bytes
  Counter* busy_ns = nullptr;       ///< pci.busy_ns

  static PciMetrics create(MetricsRegistry& reg) {
    PciMetrics m;
    m.pio_writes = &reg.counter("pci.pio_writes", "programmed-IO writes");
    m.pio_reads = &reg.counter("pci.pio_reads", "programmed-IO reads");
    m.dma_transfers = &reg.counter("pci.dma_transfers", "DMA transfers");
    m.bytes = &reg.counter("pci.bytes", "bytes moved across the bus");
    m.busy_ns = &reg.counter("pci.busy_ns", "modeled bus occupancy, ns");
    return m;
  }
};

/// hw::SramBank — the Section-5.2 bottleneck: ownership switches and the
/// arbitration time they cost.
struct SramMetrics {
  Counter* ownership_switches = nullptr;  ///< sram.ownership_switches
  Counter* stall_ns = nullptr;            ///< sram.ownership_stall_ns

  static SramMetrics create(MetricsRegistry& reg) {
    SramMetrics m;
    m.ownership_switches = &reg.counter("sram.ownership_switches",
                                        "host/FPGA bank ownership switches");
    m.stall_ns = &reg.counter("sram.ownership_stall_ns",
                              "arbitration stall time, ns");
    return m;
  }
};

/// queueing::QueueManager — per-ring pressure: enqueues, full-ring pushes,
/// occupancy high-water mark across all rings.
struct QueueMetrics {
  Counter* enqueued = nullptr;        ///< qm.enqueued
  Counter* dequeued = nullptr;        ///< qm.dequeued
  Counter* ring_full = nullptr;       ///< qm.ring_full_pushes
  Gauge* occupancy_hwm = nullptr;     ///< qm.occupancy_high_water

  static QueueMetrics create(MetricsRegistry& reg) {
    QueueMetrics m;
    m.enqueued = &reg.counter("qm.enqueued", "frames accepted into rings");
    m.dequeued = &reg.counter("qm.dequeued", "frames drained from rings");
    m.ring_full = &reg.counter("qm.ring_full_pushes",
                               "pushes rejected by a full ring");
    m.occupancy_hwm = &reg.gauge("qm.occupancy_high_water",
                                 "peak total ring occupancy");
    return m;
  }
};

/// queueing::TransmissionEngine — transmit volume, grant-burst sizes,
/// spurious schedules, per-stream counts.
struct TxMetrics {
  Counter* tx_frames = nullptr;   ///< te.tx_frames
  Counter* tx_bytes = nullptr;    ///< te.tx_bytes
  Counter* spurious = nullptr;    ///< te.spurious_schedules
  Histogram* batch_size = nullptr;///< te.batch_size
  std::vector<Counter*> per_stream_tx;  ///< stream.<i>.tx_frames

  static TxMetrics create(MetricsRegistry& reg, std::uint32_t streams) {
    TxMetrics m;
    m.tx_frames = &reg.counter("te.tx_frames", "frames transmitted");
    m.tx_bytes = &reg.counter("te.tx_bytes", "bytes transmitted");
    m.spurious = &reg.counter("te.spurious_schedules",
                              "grants with no queued frame");
    m.batch_size = &reg.histogram("te.batch_size", 0.0, 33.0, 33, false,
                                  "grant-burst sizes");
    m.per_stream_tx.reserve(streams);
    for (std::uint32_t i = 0; i < streams; ++i) {
      m.per_stream_tx.push_back(
          &reg.counter("stream." + std::to_string(i) + ".tx_frames"));
    }
    return m;
  }

  void count_stream_tx(std::uint32_t stream) {
    if (stream < per_stream_tx.size()) per_stream_tx[stream]->add(1);
  }
};

/// core::Endsystem / core::ThreadedEndsystem — the host loop itself.
struct EndsystemMetrics {
  Counter* loop_iterations = nullptr;   ///< es.loop_iterations
  Counter* arrivals_delivered = nullptr;///< es.arrivals_delivered
  Counter* frames_completed = nullptr;  ///< es.frames_completed
  Counter* dropped_late = nullptr;      ///< es.dropped_late
  Counter* reloads = nullptr;           ///< es.reloads_applied
  Histogram* reload_latency_ns = nullptr;  ///< es.reload_latency_ns
  Histogram* frame_delay_us = nullptr;  ///< es.frame_delay_us

  static EndsystemMetrics create(MetricsRegistry& reg) {
    EndsystemMetrics m;
    m.loop_iterations = &reg.counter("es.loop_iterations",
                                     "scheduler loop iterations");
    m.arrivals_delivered = &reg.counter("es.arrivals_delivered",
                                        "arrivals pushed into the pipeline");
    m.frames_completed =
        &reg.counter("es.frames_completed", "frames transmitted or dropped");
    m.dropped_late = &reg.counter("es.dropped_late",
                                  "late droppable frames discarded");
    m.reloads = &reg.counter("es.reloads_applied",
                             "admission reloads committed");
    // Mailbox commit latencies span sub-us (same-iteration pickup) to ms
    // (scheduler busy in a long drain) — log bins cover the range.
    m.reload_latency_ns =
        &reg.histogram("es.reload_latency_ns", 100.0, 1e9, 256, true,
                       "admission-reload commit latency, ns");
    // Arrival-to-departure delay per transmitted frame; the watchdog's
    // delay-quantile-drift rule reads this histogram's p99.
    m.frame_delay_us =
        &reg.histogram("es.frame_delay_us", 0.1, 1e7, 128, true,
                       "frame arrival-to-departure delay, microseconds");
    return m;
  }
};

/// pifo rank layer — SP-PIFO approximation quality as canonical names the
/// watchdog inversion-excess rule reads.  The rank substrate itself stays
/// registry-free; whichever harness cross-checks SpPifo against the exact
/// PIFO oracle (bench/pifo_inversions, rank-equivalence campaigns) feeds
/// these.
struct RankMetrics {
  Counter* pops = nullptr;        ///< rank.pops
  Counter* inversions = nullptr;  ///< rank.inversions

  static RankMetrics create(MetricsRegistry& reg) {
    RankMetrics m;
    m.pops = &reg.counter("rank.pops", "ranked-queue pops observed");
    m.inversions = &reg.counter(
        "rank.inversions",
        "pops where a strictly smaller rank was still queued");
    return m;
  }
};

/// robust::FaultPlan / robust::GuardedScheduler — injected faults by site,
/// recovery activity (retries, backoff time, exhaustions) and the health
/// FSM state (0 = HEALTHY, 1 = DEGRADED, 2 = FAILED_OVER).
struct RobustMetrics {
  Counter* pci_faults = nullptr;      ///< robust.faults.pci
  Counter* sram_faults = nullptr;     ///< robust.faults.sram
  Counter* chip_faults = nullptr;     ///< robust.faults.chip
  Counter* retries = nullptr;         ///< robust.retries
  Counter* recoveries = nullptr;      ///< robust.recoveries
  Counter* retry_exhausted = nullptr; ///< robust.retry_exhausted
  Counter* failovers = nullptr;       ///< robust.failovers
  Counter* backoff_ns = nullptr;      ///< robust.backoff_ns
  Gauge* health = nullptr;            ///< robust.health

  static RobustMetrics create(MetricsRegistry& reg) {
    RobustMetrics m;
    m.pci_faults = &reg.counter("robust.faults.pci", "injected PCI faults");
    m.sram_faults = &reg.counter("robust.faults.sram", "injected SRAM faults");
    m.chip_faults = &reg.counter("robust.faults.chip",
                                 "injected decision-cycle stalls");
    m.retries = &reg.counter("robust.retries", "transaction retries");
    m.recoveries =
        &reg.counter("robust.recoveries", "retries that then succeeded");
    m.retry_exhausted = &reg.counter("robust.retry_exhausted",
                                     "retry budgets exhausted");
    m.failovers =
        &reg.counter("robust.failovers", "failovers to the software path");
    m.backoff_ns = &reg.counter("robust.backoff_ns", "backoff time spent, ns");
    m.health = &reg.gauge("robust.health",
                          "health FSM state (0 healthy, 1 degraded, "
                          "2 failed over)");
    return m;
  }
};

}  // namespace ss::telemetry
