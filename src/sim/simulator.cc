#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ecnsharp {

namespace {

// EventId packing: low 32 bits hold (slot index + 1) so that a
// default-constructed id (seq == 0) stays invalid; high 32 bits hold the
// slot's generation at scheduling time.
constexpr std::uint64_t PackId(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) |
         (static_cast<std::uint64_t>(slot) + 1);
}

}  // namespace

// Capacity recycled between Simulator instances on the same thread. Sweeps
// construct one Simulator per experiment on a worker thread; adopting the
// previous instance's block slab, dispatch array, slot array, pinned
// records, and free lists means only the first experiment grows them.
struct Simulator::Storage {
  std::vector<Block> blocks;
  std::vector<HeapEntry> dispatch;
  std::vector<HeapEntry> overflow;
  std::vector<Slot> slots;
  std::vector<std::uint32_t> free_slots;
  std::vector<PinnedSlot> pinned;
  std::vector<std::uint32_t> free_pinned;
};

Simulator::Storage& Simulator::ThreadStorageCache() {
  thread_local Storage cache;
  return cache;
}

Simulator::Simulator() {
  Storage& cache = ThreadStorageCache();
  blocks_.swap(cache.blocks);
  dispatch_.swap(cache.dispatch);
  overflow_.swap(cache.overflow);
  slots_.swap(cache.slots);
  free_slots_.swap(cache.free_slots);
  pinned_.swap(cache.pinned);
  free_pinned_.swap(cache.free_pinned);
  // A recycled slab keeps its capacity but hands blocks out from the front
  // again; the free list starts empty.
  blocks_.clear();
  dispatch_.clear();
  overflow_.clear();
  free_slots_.clear();
  pinned_.clear();
  free_pinned_.clear();
  // Recycled slots keep their generation counters (ids never cross
  // Simulator instances, so stale tags are harmless) but start logically
  // empty: every recycled slot re-enters the free list.
  free_slots_.reserve(slots_.size());
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()) - 1 - i);
  }
  wheel_on_ = false;
  wheel_count_ = 0;
}

Simulator::~Simulator() {
  for (auto& s : slots_) s.fn = nullptr;
  blocks_.clear();
  dispatch_.clear();
  overflow_.clear();
  free_slots_.clear();
  pinned_.clear();
  free_pinned_.clear();
  Storage& cache = ThreadStorageCache();
  if (blocks_.capacity() > cache.blocks.capacity()) blocks_.swap(cache.blocks);
  if (dispatch_.capacity() > cache.dispatch.capacity()) {
    dispatch_.swap(cache.dispatch);
  }
  if (overflow_.capacity() > cache.overflow.capacity()) {
    overflow_.swap(cache.overflow);
  }
  if (slots_.size() > cache.slots.size()) slots_.swap(cache.slots);
  if (free_slots_.capacity() > cache.free_slots.capacity()) {
    free_slots_.swap(cache.free_slots);
  }
  if (pinned_.capacity() > cache.pinned.capacity()) pinned_.swap(cache.pinned);
  if (free_pinned_.capacity() > cache.free_pinned.capacity()) {
    free_pinned_.swap(cache.free_pinned);
  }
}

void Simulator::Push(const HeapEntry& e) {
  if (wheel_on_) {
    const auto abs = static_cast<std::uint64_t>(e.when.ns()) >> kWheelShift;
    const auto now_abs = static_cast<std::uint64_t>(now_.ns()) >> kWheelShift;
    if (abs - now_abs < kWheelBuckets) {
      const std::size_t idx = abs & kWheelMask;
      if (idx != visited_) {
        Append(idx, e);
      } else {
        // Before the dispatch array grows, drop its dispatched prefix, so
        // it stays bounded by what is pending rather than by all that
        // passed through the bucket since it was visited.
        if (dispatch_head_ != 0 && dispatch_.size() == dispatch_.capacity()) {
          dispatch_.erase(dispatch_.begin(),
                          dispatch_.begin() + dispatch_head_);
          dispatch_head_ = 0;
        }
        // The visited bucket stays sorted: the new entry usually sorts last
        // (it carries the newest order stamp), and only a reserved older
        // stamp or an earlier time inside the slice has to be placed among
        // the pending ones.
        if (!Later{}(dispatch_.back(), e)) {
          dispatch_.push_back(e);
        } else {
          dispatch_.insert(std::upper_bound(dispatch_.begin() + dispatch_head_,
                                            dispatch_.end(), e, Earlier{}),
                           e);
        }
      }
      MarkBucket(idx);
      ++wheel_count_;
      return;
    }
  }
  overflow_.push_back(e);
  std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  if (!wheel_on_ && overflow_.size() >= kWheelEngagePending) {
    // Sticky engagement: entries already in the heap stay there (pops keep
    // comparing both tops); only newly pushed near-horizon events start
    // landing in buckets.
    wheel_on_ = true;
  }
}

void Simulator::Append(std::size_t idx, const HeapEntry& e) {
  Bucket& bucket = buckets_[idx];
  if (bucket.last == kNoBlock || blocks_[bucket.last].count == kBlockEntries) {
    std::uint32_t b;
    if (free_block_ != kNoBlock) {
      b = free_block_;
      free_block_ = blocks_[b].next;
      blocks_[b].count = 0;
      blocks_[b].next = kNoBlock;
    } else {
      b = static_cast<std::uint32_t>(blocks_.size());
      blocks_.emplace_back();
    }
    if (bucket.last == kNoBlock) {
      bucket.first = b;
    } else {
      blocks_[bucket.last].next = b;
    }
    bucket.last = b;
  }
  Block& tail = blocks_[bucket.last];
  tail.entries[tail.count++] = e;
}

EventId Simulator::ScheduleImpl(Time when, std::uint64_t order,
                                UniqueFunction<void()> fn) {
  if (when < now_) when = now_;
  std::uint32_t s_idx;
  if (!free_slots_.empty()) {
    s_idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    s_idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[s_idx];
  s.fn = std::move(fn);
  Push(HeapEntry{when, order, s_idx, s.gen});
  ++live_count_;
  return EventId{PackId(s_idx, s.gen)};
}

EventId Simulator::Schedule(Time delay, UniqueFunction<void()> fn) {
  if (delay.IsNegative()) delay = Time::Zero();
  return ScheduleImpl(now_ + delay, next_order_++, std::move(fn));
}

EventId Simulator::ScheduleAt(Time when, UniqueFunction<void()> fn) {
  return ScheduleImpl(when, next_order_++, std::move(fn));
}

EventId Simulator::ScheduleAtOrdered(Time when, std::uint64_t order,
                                     UniqueFunction<void()> fn) {
  assert(order < next_order_);
  return ScheduleImpl(when, order, std::move(fn));
}

void Simulator::Cancel(EventId id) {
  if (!id.valid()) return;
  const auto slot_plus_one = static_cast<std::uint32_t>(id.seq & 0xffffffffu);
  if (slot_plus_one == 0) return;
  const std::uint32_t s_idx = slot_plus_one - 1;
  const auto gen = static_cast<std::uint32_t>(id.seq >> 32);
  if (s_idx >= slots_.size()) return;
  Slot& s = slots_[s_idx];
  // A generation mismatch means the event already executed or was cancelled
  // (and the slot possibly recycled): no-op, nothing retained.
  if (s.gen != gen) return;
  s.fn = nullptr;
  ++s.gen;  // invalidates the heap entry and any outstanding copies of id
  free_slots_.push_back(s_idx);
  --live_count_;
}

PinnedEventId Simulator::CreatePinned(PinnedFn fn, void* arg) {
  std::uint32_t s_idx;
  if (!free_pinned_.empty()) {
    s_idx = free_pinned_.back();
    free_pinned_.pop_back();
  } else {
    s_idx = static_cast<std::uint32_t>(pinned_.size());
    pinned_.emplace_back();
  }
  PinnedSlot& p = pinned_[s_idx];
  p.fn = fn;
  p.arg = arg;
  p.armed = false;
  return PinnedEventId{s_idx};
}

void Simulator::SchedulePinnedAt(PinnedEventId id, Time when) {
  SchedulePinnedAtOrdered(id, when, next_order_++);
}

void Simulator::SchedulePinnedAtOrdered(PinnedEventId id, Time when,
                                        std::uint64_t order) {
  assert(id.valid() && order < next_order_);
  PinnedSlot& p = pinned_[id.slot];
  assert(!p.armed);
  if (when < now_) when = now_;
  Push(HeapEntry{when, order, id.slot | kPinnedBit, p.gen});
  p.armed = true;
  ++live_count_;
}

void Simulator::CancelPinned(PinnedEventId id) {
  if (!id.valid()) return;
  PinnedSlot& p = pinned_[id.slot];
  if (!p.armed) return;
  ++p.gen;  // stale-ifies the armed heap entry
  p.armed = false;
  --live_count_;
}

bool Simulator::PinnedArmed(PinnedEventId id) const {
  return id.valid() && pinned_[id.slot].armed;
}

void Simulator::DestroyPinned(PinnedEventId id) {
  if (!id.valid()) return;
  CancelPinned(id);
  PinnedSlot& p = pinned_[id.slot];
  ++p.gen;  // belt and braces: any aliasing heap entry is stale
  p.fn = nullptr;
  p.arg = nullptr;
  free_pinned_.push_back(id.slot);
}

std::size_t Simulator::FindOccupiedBucket() const {
  const auto start = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(now_.ns()) >> kWheelShift) & kWheelMask);
  // Hot case: the bucket holding Now() is occupied (dense same-instant and
  // near-instant traffic lands there).
  if (occupancy_[start >> 6] & (1ull << (start & 63))) return start;
  // Visit masked indices in absolute-bucket order: start..end, then the
  // wrapped prefix 0..start-1 (which holds the window's later half). Word-
  // at-a-time with a masked first word.
  std::size_t word = start >> 6;
  std::uint64_t bits = occupancy_[word] & (~0ull << (start & 63));
  for (std::size_t scanned = 0; scanned <= kOccWords; ++scanned) {
    if (bits != 0) {
      return (word << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
    }
    word = (word + 1) & (kOccWords - 1);
    bits = occupancy_[word];
    // After wrapping past `start`'s word once, restrict to bits below start.
    if (scanned + 1 == kOccWords && word == (start >> 6)) {
      bits &= (start & 63) != 0 ? ~(~0ull << (start & 63)) : 0ull;
    }
  }
  return kNoBucket;
}

const Simulator::HeapEntry& Simulator::Visit(std::size_t idx) {
  if (idx != visited_) {
    if (visited_ != kNoBucket) {
      // An event at Now() pushed into a slice ahead of the visited bucket:
      // its remainder goes back into its chain and is sorted again when the
      // dispatcher returns to it.
      for (std::size_t i = dispatch_head_; i < dispatch_.size(); ++i) {
        Append(visited_, dispatch_[i]);
      }
    }
    dispatch_.clear();
    dispatch_head_ = 0;
    Bucket& bucket = buckets_[idx];
    for (std::uint32_t b = bucket.first; b != kNoBlock; b = blocks_[b].next) {
      const Block& block = blocks_[b];
      dispatch_.insert(dispatch_.end(), block.entries,
                       block.entries + block.count);
    }
    // The whole chain joins the free list in one splice.
    blocks_[bucket.last].next = free_block_;
    free_block_ = bucket.first;
    bucket = Bucket{};
    std::sort(dispatch_.begin(), dispatch_.end(), Earlier{});
    visited_ = idx;
  }
  return dispatch_[dispatch_head_];
}

void Simulator::PopVisitedHead() {
  --wheel_count_;
  if (++dispatch_head_ == dispatch_.size()) {
    dispatch_.clear();
    dispatch_head_ = 0;
    ClearBucket(visited_);
    visited_ = kNoBucket;
  }
}

Simulator::Peek Simulator::Locate() {
  bool in_wheel = false;
  // Drop cancelled entries off the first occupied bucket's head so the
  // head is live; a bucket that empties clears its bit and the scan moves
  // on.
  while (wheel_count_ != 0) {
    if (EntryLive(Visit(FindOccupiedBucket()))) {
      in_wheel = true;
      break;
    }
    PopVisitedHead();
  }
  while (!overflow_.empty()) {
    if (EntryLive(overflow_.front())) break;
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    overflow_.pop_back();
  }
  if (in_wheel) {
    return overflow_.empty() ||
                   Later{}(overflow_.front(), dispatch_[dispatch_head_])
               ? Peek::kBucket
               : Peek::kOverflow;
  }
  return overflow_.empty() ? Peek::kNone : Peek::kOverflow;
}

Simulator::HeapEntry Simulator::Pop(Peek p) {
  if (p == Peek::kBucket) {
    const HeapEntry e = dispatch_[dispatch_head_];
    PopVisitedHead();
    return e;
  }
  std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
  const HeapEntry e = overflow_.back();
  overflow_.pop_back();
  return e;
}

bool Simulator::PopNextLive(HeapEntry* out) {
  if (!wheel_on_) {
    // Single-heap mode: pop-then-check, exactly the small-run fast path.
    while (!overflow_.empty()) {
      std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
      const HeapEntry e = overflow_.back();
      overflow_.pop_back();
      if (EntryLive(e)) {
        *out = e;
        return true;
      }
    }
    return false;
  }
  for (;;) {
    // Eagerly prune cancelled overflow tops: with live near-horizon work in
    // the buckets, a mostly-cancelled timer heap collapses here instead of
    // accumulating stale entries that every push then sifts past.
    while (!overflow_.empty() && !EntryLive(overflow_.front())) {
      std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
      overflow_.pop_back();
    }
    HeapEntry e;
    if (wheel_count_ != 0) {
      const HeapEntry& head = Visit(FindOccupiedBucket());
      // Raw bucket head: a stale head still bounds its bucket from below,
      // so choosing by it and discarding afterwards cannot hide an earlier
      // live event.
      if (!overflow_.empty() && !Later{}(overflow_.front(), head)) {
        std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
        e = overflow_.back();
        overflow_.pop_back();
      } else {
        e = head;
        PopVisitedHead();
      }
    } else if (!overflow_.empty()) {
      std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
      e = overflow_.back();
      overflow_.pop_back();
    } else {
      return false;
    }
    if (EntryLive(e)) {
      *out = e;
      return true;
    }
  }
}

void Simulator::Dispatch(const HeapEntry& entry) {
  now_ = entry.when;
  --live_count_;
  if ((entry.slot & kPinnedBit) == 0) {
    Slot& s = slots_[entry.slot];
    // Move the callback out and release the slot before running it, so the
    // callback can freely schedule (possibly reusing this slot); cancelling
    // the just-dispatched id is a no-op thanks to the generation bump.
    UniqueFunction<void()> fn = std::move(s.fn);
    ++s.gen;
    free_slots_.push_back(entry.slot);
    fn();
  } else {
    // Pinned: zero closure churn. The callback may re-arm its own
    // occurrence or register more pinned events (fn and arg are copied
    // first, so a grown vector is harmless).
    PinnedSlot& p = pinned_[entry.slot & ~kPinnedBit];
    p.armed = false;
    const PinnedFn fn = p.fn;
    void* const arg = p.arg;
    fn(arg);
  }
  ++events_executed_;
}

bool Simulator::PeekNextTime(Time* out) {
  const Peek p = Locate();
  if (p == Peek::kNone) return false;
  *out = Top(p).when;
  return true;
}

std::size_t Simulator::pending_events() const {
  return overflow_.size() + wheel_count_;
}

std::size_t Simulator::wheel_storage_bytes() const {
  return blocks_.capacity() * sizeof(Block) +
         dispatch_.capacity() * sizeof(HeapEntry);
}

void Simulator::Run() {
  stopped_ = false;
  HeapEntry e;
  while (!stopped_ && PopNextLive(&e)) Dispatch(e);
}

void Simulator::RunUntil(Time until) {
  stopped_ = false;
  while (!stopped_) {
    const Peek p = Locate();
    if (p == Peek::kNone) break;
    if (Top(p).when > until) break;
    Dispatch(Pop(p));
  }
  if (!stopped_ && now_ < until) now_ = until;
}

std::size_t Simulator::ExecuteBatch() {
  Peek p = Locate();
  if (p == Peek::kNone) return 0;
  const Time batch_time = Top(p).when;
  std::size_t executed = 0;
  while (p != Peek::kNone && Top(p).when == batch_time) {
    Dispatch(Pop(p));
    ++executed;
    p = Locate();
  }
  return executed;
}

}  // namespace ecnsharp
