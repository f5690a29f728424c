// memory_models_test.cpp — SRAM banks (ownership arbitration), dual-ported
// SRAM, the PCI timing model and the DMA pull engine.
#include <gtest/gtest.h>

#include "hw/dma.hpp"
#include "hw/pci.hpp"
#include "hw/sram.hpp"

namespace ss::hw {
namespace {

// ------------------------------------------------------------- SramBank

TEST(SramBank, HostOwnsInitially) {
  SramBank b(64, Nanos{1500});
  EXPECT_EQ(b.owner(), BankOwner::kHost);
  EXPECT_EQ(b.switches(), 0u);
}

TEST(SramBank, AcquireSameOwnerIsFree) {
  SramBank b(64, Nanos{1500});
  EXPECT_EQ(count(b.acquire(BankOwner::kHost)), 0u);
  EXPECT_EQ(b.switches(), 0u);
}

TEST(SramBank, OwnershipSwitchCosts) {
  SramBank b(64, Nanos{1500});
  EXPECT_EQ(count(b.acquire(BankOwner::kFpga)), 1500u);
  EXPECT_EQ(b.switches(), 1u);
  EXPECT_EQ(count(b.acquire(BankOwner::kHost)), 1500u);
  EXPECT_EQ(b.switches(), 2u);
}

TEST(SramBank, ReadWriteByOwner) {
  SramBank b(64, Nanos{0});
  b.write(BankOwner::kHost, 7, 0xDEADBEEF);
  EXPECT_EQ(b.read(BankOwner::kHost, 7), 0xDEADBEEFu);
}

TEST(SramBank, NonOwnerAccessThrows) {
  SramBank b(64, Nanos{0});
  EXPECT_THROW(b.write(BankOwner::kFpga, 0, 1), std::logic_error);
  EXPECT_THROW((void)b.read(BankOwner::kFpga, 0), std::logic_error);
}

TEST(SramBank, OutOfRangeThrows) {
  SramBank b(8, Nanos{0});
  EXPECT_THROW(b.write(BankOwner::kHost, 8, 1), std::out_of_range);
}

TEST(DualPortedSram, ConcurrentPartitions) {
  DualPortedSram mem(128);
  EXPECT_EQ(mem.arrival_base(), 0u);
  EXPECT_EQ(mem.id_base(), 64u);
  mem.write(mem.arrival_base() + 3, 42);
  mem.write(mem.id_base() + 3, 7);
  EXPECT_EQ(mem.read(3), 42u);
  EXPECT_EQ(mem.read(67), 7u);
}

// ------------------------------------------------------------------ PCI

TEST(PciModel, BurstBandwidthIs132MBps) {
  const PciModel pci;
  EXPECT_NEAR(pci.burst_bytes_per_ns() * 1e9 / 1e6, 132.0, 0.5);
}

TEST(PciModel, PioWordGranularity) {
  PciConfig cfg;
  cfg.pio_write_ns = 300;
  cfg.pio_read_ns = 900;
  const PciModel pci(cfg);
  EXPECT_EQ(count(pci.pio_write(1)), 300u);   // one bus word minimum
  EXPECT_EQ(count(pci.pio_write(4)), 300u);
  EXPECT_EQ(count(pci.pio_write(5)), 600u);
  EXPECT_EQ(count(pci.pio_read(16)), 3600u);
}

TEST(PciModel, DmaBeatsLargePio) {
  const PciModel pci;
  const std::size_t bulk = 64 * 1024;
  EXPECT_LT(count(pci.dma_transfer(bulk)), count(pci.pio_write(bulk)));
}

TEST(PciModel, DmaSetupDominatesSmallTransfers) {
  // The push/pull guidance of Section 4.2: small transfers go PIO.
  const PciModel pci;
  EXPECT_LT(count(pci.pio_write(8)), count(pci.dma_transfer(8)));
}

TEST(PciModel, PerPacketExchangeCalibration) {
  // Section 5.2: 469,483 pps without PCI -> 2.13 us/pkt; 299,065 pps with
  // PCI PIO -> 3.34 us/pkt.  The unbatched exchange must cost ~1.2 us.
  const PciModel pci;
  const double ns = static_cast<double>(count(pci.per_packet_pio_exchange(1)));
  EXPECT_NEAR(ns, 1200.0, 150.0);
}

TEST(PciModel, BatchingAmortizesExchange) {
  const PciModel pci;
  const auto unbatched = count(pci.per_packet_pio_exchange(1));
  const auto batched = count(pci.per_packet_pio_exchange(32));
  EXPECT_LT(batched, unbatched / 2);
}

// ------------------------------------------------------------------ DMA

TEST(DmaEngine, PullPaysTwoOwnershipSwitches) {
  PciModel pci;
  SramBank bank(1024, Nanos{2000});
  DmaEngine dma(pci, bank);
  const auto t = dma.pull_to_card(4096);
  // Host already owns the bank: one switch to... host-side staging is
  // free, then the switch to the FPGA consumer.
  EXPECT_EQ(bank.switches(), 1u);
  EXPECT_GT(count(t), count(pci.dma_transfer(4096)));
  EXPECT_EQ(dma.transfers(), 1u);
  EXPECT_EQ(dma.bytes_moved(), 4096u);
}

TEST(DmaEngine, AlternatingDirectionsKeepSwitching) {
  PciModel pci;
  SramBank bank(1024, Nanos{2000});
  DmaEngine dma(pci, bank);
  // Every transfer pays at least its PCI burst.
  EXPECT_GT(count(dma.pull_to_card(1024)), 0u);  // ends with FPGA owning
  EXPECT_GT(count(dma.push_to_host(1024)), 0u);  // FPGA -> burst -> host
  EXPECT_GT(count(dma.pull_to_card(1024)), 0u);
  // pull(host ok, ->fpga) = 1; push(fpga ok, ->host) = 1... push acquires
  // fpga (already owner: free) then host: +1; pull acquires host (free)
  // then fpga: +1.
  EXPECT_EQ(bank.switches(), 3u);
  EXPECT_EQ(dma.bytes_moved(), 3072u);
}

TEST(DmaEngine, SwitchCostVisibleInLatency) {
  PciModel pci;
  SramBank cheap(1024, Nanos{0});
  SramBank pricey(1024, Nanos{50000});
  DmaEngine d1(pci, cheap), d2(pci, pricey);
  EXPECT_LT(count(d1.pull_to_card(4096)), count(d2.pull_to_card(4096)));
}

}  // namespace
}  // namespace ss::hw
