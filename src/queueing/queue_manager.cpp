#include "queueing/queue_manager.hpp"

#include <cassert>

namespace ss::queueing {

QueueManager::QueueManager(std::uint64_t quantum_ns)
    : quantum_ns_(quantum_ns == 0 ? 1 : quantum_ns) {}

std::uint32_t QueueManager::add_stream(std::size_t ring_capacity) {
  rings_.push_back(std::make_unique<SpscRing<Frame>>(ring_capacity));
  dequeued_.push_back(0);
  batched_.push_back(0);
  return static_cast<std::uint32_t>(rings_.size() - 1);
}

std::size_t QueueManager::produce_n(std::uint32_t stream, const Frame* f,
                                    std::size_t n) {
  assert(stream < rings_.size());
  SpscRing<Frame>& ring = *rings_[stream];
  const std::size_t k = ring.try_push_n(f, n);
  if (metrics_) {
    if (k < n) metrics_->ring_full->add(1);
    if (k > 0) {
      // One high-water update, with the depth after the copy: without a
      // concurrent pop, the highest the copy reached.
      metrics_->enqueued->add(k);
      metrics_->occupancy_hwm->update_max(
          static_cast<std::int64_t>(ring.size()));
    }
  }
  return k;
}

std::optional<Frame> QueueManager::consume(std::uint32_t stream) {
  assert(stream < rings_.size());
  Frame f;
  if (!rings_[stream]->try_pop(f)) return std::nullopt;
  ++dequeued_[stream];
  if (metrics_) metrics_->dequeued->add(1);
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
  const std::uint64_t dequeued = dequeued_[stream];
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
