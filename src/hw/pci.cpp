#include "hw/pci.hpp"

namespace ss::hw {

namespace {
std::size_t words_for(std::size_t bytes, unsigned bus_bytes) {
  return (bytes + bus_bytes - 1) / bus_bytes;
}
}  // namespace

Nanos PciModel::pio_write(std::size_t bytes) const {
  const Nanos ns{words_for(bytes, cfg_.bus_bytes) * cfg_.pio_write_ns};
  if (metrics_) {
    metrics_->pio_writes->add(1);
    metrics_->bytes->add(bytes);
    metrics_->busy_ns->add(count(ns));
  }
  return ns;
}

Nanos PciModel::pio_read(std::size_t bytes) const {
  const Nanos ns{words_for(bytes, cfg_.bus_bytes) * cfg_.pio_read_ns};
  if (metrics_) {
    metrics_->pio_reads->add(1);
    metrics_->bytes->add(bytes);
    metrics_->busy_ns->add(count(ns));
  }
  return ns;
}

Nanos PciModel::dma_transfer(std::size_t bytes) const {
  const double stream_ns =
      static_cast<double>(bytes) /
      (burst_bytes_per_ns() * cfg_.dma_efficiency);
  return Nanos{cfg_.dma_setup_ns + static_cast<std::uint64_t>(stream_ns)};
}

FallibleNanos PciModel::try_pio_write(std::size_t bytes) const {
  if (faults_) {
    const FaultDecision d = faults_->on_transaction(FaultSite::kPciWrite);
    if (d.fault) return {false, d.penalty};
  }
  return {true, pio_write(bytes)};
}

FallibleNanos PciModel::try_pio_read(std::size_t bytes) const {
  if (faults_) {
    const FaultDecision d = faults_->on_transaction(FaultSite::kPciRead);
    if (d.fault) return {false, d.penalty};
  }
  return {true, pio_read(bytes)};
}

Nanos PciModel::per_packet_pio_exchange(unsigned batch) const {
  if (batch == 0) batch = 1;
  // `batch` arrival times (2 bytes each) pushed, `batch` Stream IDs
  // (1 byte each, 5 bits used) read back.
  const std::uint64_t push = count(pio_write(std::size_t{batch} * 2));
  const std::uint64_t pull = count(pio_read(std::size_t{batch} * 1));
  return Nanos{(push + pull) / batch};
}

}  // namespace ss::hw
