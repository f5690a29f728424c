// pci.hpp — timing model of the 32-bit / 33 MHz PCI path to the FPGA card.
//
// The endsystem realization exchanges 16-bit arrival-time offsets and
// 5-bit Stream IDs over PCI (Figure 3), using programmed I/O for small
// transfers ("push") and card-DMA bursts for bulk transfers ("pull").
// Section 5.2 reports 469,483 pps excluding PCI transfer time and 299,065
// pps including PCI PIO — i.e. PIO adds ~1.2 us per packet round-trip.
// The defaults below are calibrated to that gap: PCI posted writes are
// cheap (~0.3 us) while PIO reads stall the processor for a full bus
// round-trip (~0.9 us), a well-known asymmetry of the bus.
#pragma once

#include <cstdint>

#include "hw/fault_hooks.hpp"
#include "telemetry/instruments.hpp"
#include "util/sim_time.hpp"

namespace ss::hw {

struct PciConfig {
  double bus_mhz = 33.0;
  unsigned bus_bytes = 4;              ///< 32-bit bus
  std::uint64_t pio_write_ns = 300;    ///< per 32-bit posted write
  std::uint64_t pio_read_ns = 900;     ///< per 32-bit blocking read
  std::uint64_t dma_setup_ns = 2000;   ///< descriptor + doorbell
  double dma_efficiency = 0.85;        ///< fraction of theoretical burst BW
};

class PciModel {
 public:
  explicit PciModel(const PciConfig& cfg = {}) : cfg_(cfg) {}

  /// Theoretical burst bandwidth in bytes/ns (132 MB/s for 32/33).
  [[nodiscard]] double burst_bytes_per_ns() const {
    return cfg_.bus_mhz * 1e6 * cfg_.bus_bytes / 1e9;
  }

  /// Host "push" of `bytes` via programmed I/O writes.
  [[nodiscard]] Nanos pio_write(std::size_t bytes) const;

  /// Host programmed-I/O read of `bytes` (e.g. scheduled Stream IDs).
  [[nodiscard]] Nanos pio_read(std::size_t bytes) const;

  /// Card-DMA "pull" burst of `bytes` (setup + streaming at the efficient
  /// burst rate).  Used when the Stream processor batches arrival-times.
  [[nodiscard]] Nanos dma_transfer(std::size_t bytes) const;

  /// The per-packet PCI cost of the ShareStreams exchange: one arrival
  /// time pushed, one Stream ID read back, amortized over a batch of
  /// `batch` packets per PIO transaction (arrival times are 16-bit so two
  /// pack per bus word; IDs are 5-bit so four pack comfortably).
  [[nodiscard]] Nanos per_packet_pio_exchange(unsigned batch = 1) const;

  [[nodiscard]] const PciConfig& config() const { return cfg_; }

  /// Attach live metrics (nullptr detaches).  Transfer counts, bytes and
  /// modeled bus-busy time are recorded on every PIO transfer; the cost
  /// when detached is one null test per call.
  void attach_metrics(telemetry::PciMetrics* m) { metrics_ = m; }

  /// Attach a fault injector (nullptr detaches).  Only the try_* variants
  /// consult it; the infallible methods above keep their exact behavior.
  void attach_faults(FaultInjector* f) { faults_ = f; }

  /// Fallible variants: each attempt may fail with a modeled bus timeout
  /// (the injector's penalty stands in for the master-abort / retry-limit
  /// window).  On failure no data moves; the caller owns retry policy.
  [[nodiscard]] FallibleNanos try_pio_write(std::size_t bytes) const;
  [[nodiscard]] FallibleNanos try_pio_read(std::size_t bytes) const;

 private:
  PciConfig cfg_;
  telemetry::PciMetrics* metrics_ = nullptr;
  FaultInjector* faults_ = nullptr;
};

}  // namespace ss::hw
