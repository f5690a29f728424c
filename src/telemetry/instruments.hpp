// instruments.hpp — per-layer metric bundles.
//
// Each pipeline layer (chip, PCI, queue manager, transmission engine,
// endsystem loop) attaches one of these plain structs of
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
  /// chip.idle_decision_cycles: decision cycles with no backlog
  Counter* idle_decisions = nullptr;
  Counter* grants = nullptr;          ///< chip.grants
  Counter* drops = nullptr;           ///< chip.drops: late droppable heads
  /// chip.circulations: slot IDs circulated for the winner window
  /// adjustment
  Counter* circulations = nullptr;
  Counter* hw_cycles = nullptr;       ///< chip.hw_cycles
  Counter* load_cycles = nullptr;     ///< chip.phase.load_cycles
  Counter* schedule_cycles = nullptr; ///< chip.phase.schedule_cycles
  Counter* update_cycles = nullptr;   ///< chip.phase.update_cycles
  Counter* output_cycles = nullptr;   ///< chip.phase.output_cycles
  Counter* net_passes = nullptr;      ///< chip.network.passes
  /// chip.network.reuses: decision cycles that re-placed dirty lanes in
  /// the previous sort
  Counter* net_reuses = nullptr;
  Counter* net_comparisons = nullptr; ///< chip.network.comparisons
  /// chip.block_size: pending lanes per non-idle decision
  Histogram* block_size = nullptr;

  static ChipMetrics create(MetricsRegistry& reg) {
    ChipMetrics m;
    m.decisions = &reg.counter("chip.decision_cycles");
    m.idle_decisions = &reg.counter("chip.idle_decision_cycles");
    m.grants = &reg.counter("chip.grants");
    m.drops = &reg.counter("chip.drops");
    m.circulations = &reg.counter("chip.circulations");
    m.hw_cycles = &reg.counter("chip.hw_cycles");
    m.load_cycles = &reg.counter("chip.phase.load_cycles");
    m.schedule_cycles = &reg.counter("chip.phase.schedule_cycles");
    m.update_cycles = &reg.counter("chip.phase.update_cycles");
    m.output_cycles = &reg.counter("chip.phase.output_cycles");
    m.net_passes = &reg.counter("chip.network.passes");
    m.net_reuses = &reg.counter("chip.network.reuses");
    m.net_comparisons = &reg.counter("chip.network.comparisons");
    m.block_size = &reg.histogram("chip.block_size", 0.0, 33.0, 33);
    return m;
  }
};

/// hw::PciModel — transfer counts, bytes moved, modeled bus occupancy.
struct PciMetrics {
  Counter* pio_writes = nullptr;    ///< pci.pio_writes
  Counter* pio_reads = nullptr;     ///< pci.pio_reads
  Counter* bytes = nullptr;         ///< pci.bytes
  Counter* busy_ns = nullptr;       ///< pci.busy_ns

  static PciMetrics create(MetricsRegistry& reg) {
    PciMetrics m;
    m.pio_writes = &reg.counter("pci.pio_writes");
    m.pio_reads = &reg.counter("pci.pio_reads");
    m.bytes = &reg.counter("pci.bytes");
    m.busy_ns = &reg.counter("pci.busy_ns");
    return m;
  }
};

/// queueing::QueueManager — per-ring pressure: enqueues, full-ring pushes,
/// occupancy high-water mark across all rings.
struct QueueMetrics {
  Counter* enqueued = nullptr;        ///< qm.enqueued
  Counter* dequeued = nullptr;        ///< qm.dequeued
  Counter* ring_full = nullptr;       ///< qm.ring_full_pushes
  /// qm.occupancy_high_water: peak occupancy summed over every ring
  Gauge* occupancy_hwm = nullptr;

  static QueueMetrics create(MetricsRegistry& reg) {
    QueueMetrics m;
    m.enqueued = &reg.counter("qm.enqueued");
    m.dequeued = &reg.counter("qm.dequeued");
    m.ring_full = &reg.counter("qm.ring_full_pushes");
    m.occupancy_hwm = &reg.gauge("qm.occupancy_high_water");
    return m;
  }
};

/// queueing::TransmissionEngine — transmit volume, grant-burst sizes,
/// spurious schedules, per-stream counts.
struct TxMetrics {
  Counter* tx_frames = nullptr;   ///< te.tx_frames
  Counter* tx_bytes = nullptr;    ///< te.tx_bytes
  /// te.spurious_schedules: grants with no queued frame
  Counter* spurious = nullptr;
  Histogram* batch_size = nullptr;  ///< te.batch_size: grant-burst sizes
  std::vector<Counter*> per_stream_tx;  ///< stream.<i>.tx_frames

  static TxMetrics create(MetricsRegistry& reg, std::uint32_t streams) {
    TxMetrics m;
    m.tx_frames = &reg.counter("te.tx_frames");
    m.tx_bytes = &reg.counter("te.tx_bytes");
    m.spurious = &reg.counter("te.spurious_schedules");
    m.batch_size = &reg.histogram("te.batch_size", 0.0, 33.0, 33);
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
  /// es.frames_completed: frames transmitted or dropped
  Counter* frames_completed = nullptr;
  Counter* dropped_late = nullptr;      ///< es.dropped_late
  /// es.reloads_applied: admission reloads committed
  Counter* reloads = nullptr;
  Histogram* reload_latency_ns = nullptr;  ///< es.reload_latency_ns
  Histogram* frame_delay_us = nullptr;  ///< es.frame_delay_us

  static EndsystemMetrics create(MetricsRegistry& reg) {
    EndsystemMetrics m;
    m.loop_iterations = &reg.counter("es.loop_iterations");
    m.arrivals_delivered = &reg.counter("es.arrivals_delivered");
    m.frames_completed = &reg.counter("es.frames_completed");
    m.dropped_late = &reg.counter("es.dropped_late");
    m.reloads = &reg.counter("es.reloads_applied");
    // Mailbox commit latencies span sub-us (same-iteration pickup) to ms
    // (scheduler busy in a long drain) — log bins cover the range.
    m.reload_latency_ns =
        &reg.histogram("es.reload_latency_ns", 100.0, 1e9, 256, true);
    // Arrival-to-departure delay per transmitted frame; the watchdog's
    // delay-quantile-drift rule reads this histogram's p99.
    m.frame_delay_us =
        &reg.histogram("es.frame_delay_us", 0.1, 1e7, 128, true);
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
  /// rank.inversions: pops where a strictly smaller rank was still queued
  Counter* inversions = nullptr;

  static RankMetrics create(MetricsRegistry& reg) {
    RankMetrics m;
    m.pops = &reg.counter("rank.pops");
    m.inversions = &reg.counter("rank.inversions");
    return m;
  }
};

/// robust::FaultPlan / robust::GuardedScheduler — injected faults by site,
/// recovery activity (retries, backoff time, exhaustions) and the health
/// FSM state (0 = HEALTHY, 1 = DEGRADED, 2 = FAILED_OVER).
struct RobustMetrics {
  Counter* pci_faults = nullptr;      ///< robust.faults.pci
  Counter* sram_faults = nullptr;     ///< robust.faults.sram
  /// robust.faults.chip: injected decision-cycle stalls
  Counter* chip_faults = nullptr;
  Counter* retries = nullptr;         ///< robust.retries
  /// robust.recoveries: retries that then succeeded
  Counter* recoveries = nullptr;
  Counter* retry_exhausted = nullptr; ///< robust.retry_exhausted
  /// robust.failovers: failovers to the software path
  Counter* failovers = nullptr;
  Counter* backoff_ns = nullptr;      ///< robust.backoff_ns
  Gauge* health = nullptr;            ///< robust.health

  static RobustMetrics create(MetricsRegistry& reg) {
    RobustMetrics m;
    m.pci_faults = &reg.counter("robust.faults.pci");
    m.sram_faults = &reg.counter("robust.faults.sram");
    m.chip_faults = &reg.counter("robust.faults.chip");
    m.retries = &reg.counter("robust.retries");
    m.recoveries = &reg.counter("robust.recoveries");
    m.retry_exhausted = &reg.counter("robust.retry_exhausted");
    m.failovers = &reg.counter("robust.failovers");
    m.backoff_ns = &reg.counter("robust.backoff_ns");
    m.health = &reg.gauge("robust.health");
    return m;
  }
};

}  // namespace ss::telemetry
