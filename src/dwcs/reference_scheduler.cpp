#include "dwcs/reference_scheduler.hpp"

#include <algorithm>
#include <cassert>

namespace ss::dwcs {

ReferenceScheduler::ReferenceScheduler() : ReferenceScheduler(Options{}) {}

ReferenceScheduler::ReferenceScheduler(Options opt) : opt_(opt) {}

std::uint32_t ReferenceScheduler::add_stream(const StreamSpec& spec) {
  StreamState s;
  s.spec = spec;
  s.attrs.deadline = spec.initial_deadline;
  s.attrs.loss_num = spec.loss_num;
  s.attrs.loss_den = spec.loss_den;
  s.attrs.id = static_cast<std::uint32_t>(streams_.size());
  streams_.push_back(s);
  tag_fifos_.emplace_back();
  return s.attrs.id;
}

void ReferenceScheduler::reload_stream(std::uint32_t stream,
                                       const StreamSpec& spec) {
  StreamState& s = streams_.at(stream);
  s.spec = spec;
  s.attrs = StreamAttrs{};
  s.attrs.deadline = spec.initial_deadline;
  s.attrs.loss_num = spec.loss_num;
  s.attrs.loss_den = spec.loss_den;
  s.attrs.id = stream;
  s.backlog = 0;
  s.counters = {};
  tag_fifos_[stream].clear();
}

void ReferenceScheduler::push_request(std::uint32_t stream) {
  push_request(stream, vtime_);
}

void ReferenceScheduler::push_request(std::uint32_t stream,
                                      std::uint64_t arrival) {
  push_requests(stream, arrival, 1);
}

void ReferenceScheduler::push_requests(std::uint32_t stream,
                                       std::uint64_t arrival,
                                       std::uint32_t n) {
  StreamState& s = streams_.at(stream);
  if (n == 0) return;
  if (s.backlog == 0) s.attrs.arrival = arrival;
  s.backlog += n;
  s.attrs.pending = true;
}

void ReferenceScheduler::push_tagged_request(std::uint32_t stream,
                                             std::uint64_t tag,
                                             std::uint64_t arrival) {
  StreamState& s = streams_.at(stream);
  assert(s.spec.mode == StreamMode::kFairTag);
  if (s.backlog == 0 && tag_fifos_[stream].empty()) {
    s.attrs.deadline = tag;
  } else {
    tag_fifos_[stream].push_back(tag);
  }
  push_request(stream, arrival);
}

bool ReferenceScheduler::outranks(const StreamAttrs& a,
                                  const StreamAttrs& b) const {
  return opt_.edf_comparison ? precedes_edf(a, b) : precedes(a, b);
}

void ReferenceScheduler::winner_window_adjust(StreamState& s) {
  if (s.spec.mode != StreamMode::kDwcs) return;
  auto& x = s.attrs.loss_num;
  auto& y = s.attrs.loss_den;
  if (x > 0) {
    --x;
    --y;
  } else if (y > 0) {
    --y;
  }
  if (x == 0 && y == 0) {
    x = s.spec.loss_num;
    y = s.spec.loss_den;
  }
}

void ReferenceScheduler::loser_window_adjust(StreamState& s) {
  if (s.spec.mode != StreamMode::kDwcs) return;
  auto& x = s.attrs.loss_num;
  auto& y = s.attrs.loss_den;
  if (x > 0) {
    --x;
    --y;
    if (x == 0 && y == 0) {
      x = s.spec.loss_num;
      y = s.spec.loss_den;
    }
  } else {
    ++s.counters.violations;
    if (y < 0xFF) ++y;  // mirror the hardware's 8-bit saturation
  }
}

void ReferenceScheduler::service_update(StreamState& s, std::uint64_t now,
                                        bool circulated) {
  if (s.backlog == 0) return;
  const bool met = s.attrs.deadline > now;  // late at-or-after the deadline
  --s.backlog;
  s.attrs.pending = s.backlog > 0;
  ++s.counters.serviced;
  if (!met) {
    ++s.counters.late_transmissions;
    ++s.counters.missed_deadlines;
  }
  if (circulated) {
    ++s.counters.winner_cycles;
    winner_window_adjust(s);
    s.attrs.arrival = now;
  }
  if (s.spec.mode != StreamMode::kStaticPrio) {
    s.attrs.deadline += s.spec.period;
  }
  if (s.spec.mode == StreamMode::kFairTag) {
    auto& fifo = tag_fifos_[s.attrs.id];
    if (!fifo.empty()) {
      s.attrs.deadline = fifo.front();
      fifo.erase(fifo.begin());
    }
  }
}

bool ReferenceScheduler::miss_update(StreamState& s, std::uint64_t now) {
  if (s.backlog == 0) return false;
  if (s.spec.mode == StreamMode::kStaticPrio ||
      s.spec.mode == StreamMode::kFairTag) {
    return false;
  }
  if (s.attrs.deadline > now) return false;  // head still in time
  ++s.counters.missed_deadlines;
  loser_window_adjust(s);
  if (s.spec.droppable) {
    --s.backlog;
    s.attrs.pending = s.backlog > 0;
    s.attrs.deadline += s.spec.period;
    return true;
  }
  return false;
}

SwDecision ReferenceScheduler::run_decision_cycle() {
  ++decisions_;
  SwDecision out;

  bool any_pending = false;
  for (const StreamState& s : streams_) {
    any_pending = any_pending || s.backlog > 0;
  }
  if (!any_pending) {
    out.idle = true;
    vtime_ += 1;
    return out;
  }

  // Ordered index of all streams (the software analogue of the block).
  std::vector<std::uint32_t> order(streams_.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return outranks(streams_[a].attrs, streams_[b].attrs);
  });

  if (!opt_.block_mode) {
    const std::uint32_t w = order.front();
    out.circulated = w;
    out.grants.push_back({w, vtime_, false});
  } else {
    std::vector<std::uint32_t> pending;
    for (std::uint32_t i : order) {
      if (streams_[i].backlog > 0) pending.push_back(i);
    }
    if (opt_.min_first) std::reverse(pending.begin(), pending.end());
    const std::size_t burst =
        opt_.batch_depth == 0
            ? pending.size()
            : std::min<std::size_t>(opt_.batch_depth, pending.size());
    out.circulated = pending.front();
    for (std::size_t i = 0; i < burst; ++i) {
      out.grants.push_back({pending[i], vtime_ + i, false});
    }
  }

  std::vector<bool> granted(streams_.size(), false);
  for (SwGrant& g : out.grants) {
    granted[g.stream] = true;
    StreamState& s = streams_[g.stream];
    const bool met = s.attrs.deadline > g.emit_vtime;
    g.met_deadline = met;
    service_update(s, g.emit_vtime,
                   out.circulated && *out.circulated == g.stream);
  }
  const std::uint64_t cycle_end = vtime_ + out.grants.size();
  for (std::uint32_t i = 0; i < streams_.size(); ++i) {
    if (granted[i]) continue;
    if (miss_update(streams_[i], cycle_end)) out.drops.push_back(i);
  }
  vtime_ += out.grants.size();
  return out;
}

}  // namespace ss::dwcs
