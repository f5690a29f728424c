#include "queueing/transmission_engine.hpp"

#include <algorithm>

namespace ss::queueing {

std::size_t TransmissionEngine::transmit_block(
    std::span<const BlockGrant> grants, std::vector<TxRecord>* out) {
  if (grants.empty()) return 0;
  if (metrics_) {
    metrics_->batch_size->observe(static_cast<double>(grants.size()));
  }
  std::size_t sent = 0;
  for (const BlockGrant& g : grants) {
    const std::optional<Frame> f = qm_.consume(g.stream);
    if (!f) {
      ++spurious_;
      if (metrics_) metrics_->spurious->add(1);
      continue;
    }
    // A frame cannot leave before it arrived; the link may also still be
    // serializing a predecessor.
    const std::uint64_t departure =
        link_.transmit(f->bytes, std::max(g.emit_ns, f->arrival_ns));
    if (metrics_) {
      metrics_->tx_frames->add(1);
      metrics_->tx_bytes->add(f->bytes);
      metrics_->count_stream_tx(g.stream);
    }
    const TxRecord rec{g.stream, f->bytes, f->arrival_ns, departure};
    if (record_) records_.push_back(rec);
    if (out) out->push_back(rec);
    ++sent;
  }
  return sent;
}

}  // namespace ss::queueing
