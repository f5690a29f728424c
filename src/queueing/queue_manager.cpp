#include "queueing/queue_manager.hpp"

#include <cassert>

namespace ss::queueing {

QueueManager::QueueManager(std::uint64_t quantum_ns)
    : quantum_ns_(quantum_ns == 0 ? 1 : quantum_ns) {}

std::uint32_t QueueManager::add_stream(std::size_t ring_capacity) {
  rings_.push_back(std::make_unique<SpscRing<Frame>>(ring_capacity));
  stats_.emplace_back();
  batched_.push_back(0);
  return static_cast<std::uint32_t>(rings_.size() - 1);
}

bool QueueManager::produce(std::uint32_t stream, const Frame& f) {
  assert(stream < rings_.size());
  if (!rings_[stream]->try_push(f)) {
    ++stats_[stream].dropped_full;
    SS_TELEM(if (metrics_) metrics_->ring_full->add(1));
    return false;
  }
  ++stats_[stream].enqueued;
  SS_TELEM(if (metrics_) {
    metrics_->enqueued->add(1);
    metrics_->occupancy_hwm->update_max(
        static_cast<std::int64_t>(rings_[stream]->size()));
  });
  return true;
}

std::optional<Frame> QueueManager::consume(std::uint32_t stream) {
  assert(stream < rings_.size());
  Frame f;
  if (!rings_[stream]->try_pop(f)) return std::nullopt;
  ++stats_[stream].dequeued;
  SS_TELEM(if (metrics_) metrics_->dequeued->add(1));
  return f;
}

std::size_t QueueManager::consume_batch(std::uint32_t stream, std::size_t max,
                                        std::vector<Frame>& out) {
  assert(stream < rings_.size());
  const std::size_t base = out.size();
  out.resize(base + max);
  const std::size_t n = rings_[stream]->try_pop_n(out.data() + base, max);
  out.resize(base + n);
  stats_[stream].dequeued += n;
  SS_TELEM(if (metrics_ && n) metrics_->dequeued->add(n));
  return n;
}

std::optional<Frame> QueueManager::peek(std::uint32_t stream) const {
  assert(stream < rings_.size());
  Frame f;
  if (!rings_[stream]->try_peek(f)) return std::nullopt;
  return f;
}

std::size_t QueueManager::depth(std::uint32_t stream) const {
  assert(stream < rings_.size());
  return rings_[stream]->size();
}

std::vector<std::uint16_t> QueueManager::batch_arrivals(std::uint32_t stream,
                                                        std::size_t max) {
  assert(stream < rings_.size());
  // The ring's head is frame number `dequeued`, so the first frame not yet
  // batched sits `batched - dequeued` slots behind it.
  const std::uint64_t dequeued = stats_[stream].dequeued;
  std::uint64_t& batched = batched_[stream];
  if (batched < dequeued) batched = dequeued;
  std::vector<std::uint16_t> out;
  Frame f;
  for (std::size_t k = batched - dequeued;
       out.size() < max && rings_[stream]->try_peek_at(k, f); ++k) {
    out.push_back(arrival_offset(f.arrival_ns, quantum_ns_));
  }
  batched += out.size();
  return out;
}

}  // namespace ss::queueing
