#include "queueing/transmission_engine.hpp"

#include <algorithm>

namespace ss::queueing {

std::optional<TxRecord> TransmissionEngine::transmit(std::uint32_t stream,
                                                     std::uint64_t now_ns) {
  const std::optional<Frame> f = qm_.consume(stream);
  if (!f) {
    ++spurious_;
    if (metrics_) metrics_->spurious->add(1);
    return std::nullopt;
  }
  // A frame cannot leave before it arrived; the link may also still be
  // serializing a predecessor.
  const std::uint64_t ready = std::max(now_ns, f->arrival_ns);
  const std::uint64_t departure = link_.transmit(f->bytes, ready);

  if (stream >= bytes_per_stream_.size()) {
    bytes_per_stream_.resize(stream + 1, 0);
    frames_per_stream_.resize(stream + 1, 0);
  }
  bytes_per_stream_[stream] += f->bytes;
  frames_per_stream_[stream] += 1;

  if (metrics_) {
    metrics_->tx_frames->add(1);
    metrics_->tx_bytes->add(f->bytes);
    metrics_->count_stream_tx(stream);
  }

  TxRecord rec{stream, f->bytes, f->arrival_ns, departure};
  if (record_) records_.push_back(rec);
  return rec;
}

std::size_t TransmissionEngine::transmit_block(
    std::span<const BlockGrant> grants, std::vector<TxRecord>* out) {
  if (grants.empty()) return 0;
  if (metrics_) {
    metrics_->batch_size->observe(static_cast<double>(grants.size()));
  }

  // Winner-only bursts (WR mode, batch_depth = 1) take the plain path —
  // the batching machinery must not tax the unbatched configuration.
  if (grants.size() == 1) {
    const auto rec = transmit(grants[0].stream, grants[0].emit_ns);
    if (!rec) return 0;
    if (out) out->push_back(*rec);
    return 1;
  }

  // Per-packet bookkeeping, hoisted: one counters resize and one records
  // reservation cover the whole burst.
  std::uint32_t max_stream = 0;
  for (const BlockGrant& g : grants) max_stream = std::max(max_stream, g.stream);
  if (max_stream >= bytes_per_stream_.size()) {
    bytes_per_stream_.resize(max_stream + 1, 0);
    frames_per_stream_.resize(max_stream + 1, 0);
  }
  // NOTE: records_ deliberately gets no reserve() here — asking for
  // size()+K exact capacity every burst would defeat push_back's geometric
  // growth and turn the run quadratic.  `out` is a per-cycle scratch whose
  // capacity persists across bursts, so the reserve is a one-time cost.
  if (out) out->reserve(out->size() + grants.size());

  std::size_t sent = 0;
  for (std::size_t i = 0; i < grants.size();) {
    // A run of grants for one stream becomes a single bulk ring pop (one
    // acquire/release pair however long the run).
    std::size_t j = i + 1;
    while (j < grants.size() && grants[j].stream == grants[i].stream) ++j;
    scratch_.clear();
    const std::size_t got = qm_.consume_batch(grants[i].stream, j - i, scratch_);
    spurious_ += (j - i) - got;
    if (metrics_ && got < j - i) {
      metrics_->spurious->add((j - i) - got);
    }
    for (std::size_t k = 0; k < got; ++k) {
      const Frame& f = scratch_[k];
      const BlockGrant& g = grants[i + k];
      const std::uint64_t ready = std::max(g.emit_ns, f.arrival_ns);
      const std::uint64_t departure = link_.transmit(f.bytes, ready);
      bytes_per_stream_[g.stream] += f.bytes;
      frames_per_stream_[g.stream] += 1;
      if (metrics_) {
        metrics_->tx_frames->add(1);
        metrics_->tx_bytes->add(f.bytes);
        metrics_->count_stream_tx(g.stream);
      }
      const TxRecord rec{g.stream, f.bytes, f.arrival_ns, departure};
      if (record_) records_.push_back(rec);
      if (out) out->push_back(rec);
      ++sent;
    }
    i = j;
  }
  return sent;
}

}  // namespace ss::queueing
