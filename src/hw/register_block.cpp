#include "hw/register_block.hpp"

namespace ss::hw {

void RegisterBlock::load(SlotId id, const SlotConfig& cfg) {
  id_ = id;
  cfg_ = cfg;
  deadline_ = cfg.initial_deadline;
  arrival_ = Arrival{0};
  xp_ = cfg.loss_num;
  yp_ = cfg.loss_den;
  pending_ = 0;
  expired_latch_ = false;
  counters_ = {};
}

void RegisterBlock::push_request(Arrival arrival) {
  // Arrival time latches only for the head-of-line request: FCFS ordering
  // (Table-2 rule 5) compares when the *currently contending* packet
  // arrived.
  if (pending_ == 0) arrival_ = arrival;
  ++pending_;
}

AttrWord RegisterBlock::attrs() const {
  AttrWord w;
  w.deadline = deadline_;
  w.loss_num = xp_;
  w.loss_den = yp_;
  w.arrival = arrival_;
  w.id = id_;
  w.pending = pending_ > 0;
  return w;
}

bool RegisterBlock::latch_expired(std::uint64_t now) {
  // 16-bit serial comparison against the low bits of vtime (what a
  // subtract-and-test-MSB comparator computes), latched sticky so a deep
  // backlog cannot wrap the head back into the "future".
  expired_latch_ = deadline_expired(now);
  return expired_latch_;
}

void RegisterBlock::winner_window_adjust() {
  if (cfg_.mode != SlotMode::kDwcs) return;
  if (xp_ > 0) {
    // A window position consumed by a timely service.
    --xp_;
    --yp_;
  } else if (yp_ > 0) {
    // x' == 0: servicing a fully-constrained stream shrinks the remaining
    // window, lowering its rule-3 priority (the "winner priority is
    // effectively lowered" behaviour the paper describes).
    --yp_;
  }
  reset_window_if_complete();
}

void RegisterBlock::loser_window_adjust() {
  if (cfg_.mode != SlotMode::kDwcs) return;
  if (xp_ > 0) {
    // Tolerable loss: consume one of the x' allowed misses.
    --xp_;
    --yp_;
    reset_window_if_complete();
  } else {
    // Violation: the stream can tolerate no more losses.  Raising y'
    // raises its priority among zero-constraint streams (Table-2 rule 3),
    // so the scheduler compensates it in subsequent cycles.
    ++counters_.violations;
    if (yp_ < 0xFF) ++yp_;  // saturate at the 8-bit field limit
  }
}

void RegisterBlock::reset_window_if_complete() {
  if (xp_ == 0 && yp_ == 0) {
    xp_ = cfg_.loss_num;
    yp_ = cfg_.loss_den;
  }
}

bool RegisterBlock::service_update(std::uint64_t now, bool circulated) {
  if (pending_ == 0) return true;  // spurious grant of an idle slot
  const bool met = !latch_expired(now);
  --pending_;
  ++counters_.serviced;
  if (!met) {
    ++counters_.late_transmissions;
    ++counters_.missed_deadlines;
  }
  if (circulated) {
    ++counters_.winner_cycles;
    winner_window_adjust();
    // The arrival register refreshes so FCFS tie-breaks favour slots that
    // have waited longest since their last grant.
    arrival_ = Arrival{now};
  }
  // Deadline bookkeeping: the next request's deadline is one period after
  // the one just served.  Every granted slot advances concurrently (each
  // Register Base block sees its own grant line) — only the *window*
  // adjustment above depends on the single circulated ID.
  if (cfg_.mode == SlotMode::kDwcs || cfg_.mode == SlotMode::kEdf ||
      cfg_.mode == SlotMode::kFairTag) {
    deadline_ += cfg_.period;
    // The head advanced: re-evaluate the expired latch for the new head.
    expired_latch_ = false;
    if (pending_ > 0) (void)latch_expired(now);
  }
  return met;
}

RegisterBlock::MissResult RegisterBlock::miss_update(std::uint64_t now) {
  if (pending_ == 0 || cfg_.mode == SlotMode::kStaticPrio ||
      cfg_.mode == SlotMode::kFairTag || !latch_expired(now)) {
    return {};
  }
  ++counters_.missed_deadlines;
  loser_window_adjust();
  if (cfg_.droppable) {
    // The late head-of-line packet is dropped; the next request's deadline
    // is one period later.  Non-droppable streams keep waiting with the
    // expired deadline (and keep accumulating misses), exactly the
    // behaviour that produces Table 3's ~one-miss-per-cycle max-finding
    // column.
    --pending_;
    deadline_ += cfg_.period;
    expired_latch_ = false;
    if (pending_ > 0) (void)latch_expired(now);
    return {true, true};
  }
  return {true, false};
}

}  // namespace ss::hw
