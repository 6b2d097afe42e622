// Discrete-event simulation core.
//
// `Simulator` owns the virtual clock and the pending-event store. All model
// components hold a reference to one Simulator and schedule callbacks on it;
// nothing in the library uses wall-clock time. Events scheduled for the same
// instant execute in scheduling order (FIFO), which makes runs fully
// deterministic for a fixed seed.
//
// The pending-event store is a binary heap with a calendar/timing-wheel
// front that engages adaptively: while the pending set is small everything
// lives in the one heap (the cheapest structure at that scale), and once a
// run demonstrates scale the near-horizon band (1024 buckets of 256 ns)
// starts absorbing the dense packet-timescale events, leaving far-horizon
// work (RTO timers, scenario actions) in the original heap. The wheel is a
// pooled calendar (Brown's calendar queue, CACM 1988, with shared
// storage): a bucket the dispatcher has not reached is an unsorted chain of
// fixed-size entry blocks drawn from one free list, so a push is one
// append. When the dispatcher reaches a bucket it moves the entries into
// one reusable dispatch array, returns the blocks to the free list, sorts
// the array once and pops from a head index. Wheel storage therefore tracks
// the pending set, not the worst burst each of the 1024 slices ever held.
// Both structures order entries by the same (when, order) key, and the
// dispatcher always pops the global minimum across the two, so the
// execution sequence is bit-identical to a single min-heap in either mode —
// the wheel is purely a cache/complexity optimization, and draining a
// same-timestamp train never re-heapifies the far horizon (ExecuteBatch
// exposes that drain as an API).
//
// The hot path is allocation- and hash-free: callbacks are stored in a
// recycled slot array, the heaps order POD entries only, and cancellation is
// an O(1) generation-tag bump (no hash-set bookkeeping). Recurring events
// (egress serialization, wire arrivals) can be *pinned*: the callback is
// registered once in chunk-stable storage and re-armed per occurrence, so a
// million packet transmissions build zero closures. Slot, heap, block and
// free-list storage is recycled across Simulator instances on the same
// thread, so the Nth experiment of a sweep pays no warm-up allocations.
#ifndef ECNSHARP_SIM_SIMULATOR_H_
#define ECNSHARP_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.h"
#include "sim/unique_function.h"

namespace ecnsharp {

// Opaque handle to a scheduled event; used only for cancellation. Internally
// packs the event's slot index and the slot's generation tag, so a stale id
// (slot since executed/cancelled and recycled) can never cancel the slot's
// new occupant.
struct EventId {
  std::uint64_t seq = 0;
  constexpr bool valid() const { return seq != 0; }
};

// Handle to a pinned (persistent, re-armable) event. Unlike EventId it stays
// valid across firings: the callback is installed once with CreatePinned and
// each SchedulePinned* arms one occurrence.
struct PinnedEventId {
  std::uint32_t slot = UINT32_MAX;
  constexpr bool valid() const { return slot != UINT32_MAX; }
};

class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time Now() const { return now_; }

  // Schedules `fn` to run `delay` after the current time. Negative delays
  // are clamped to zero (run "now", after currently executing events).
  EventId Schedule(Time delay, UniqueFunction<void()> fn);
  // Schedules `fn` at absolute time `when` (clamped to Now()).
  EventId ScheduleAt(Time when, UniqueFunction<void()> fn);

  // Reserves the next FIFO tie-break order stamp without scheduling
  // anything. Batched components (net/delivery_queue.h) reserve the stamp at
  // the instant the legacy code would have scheduled a per-packet event,
  // and Timer at the instant a restart would have scheduled its expiry;
  // they later insert the event at exactly that position via
  // ScheduleAtOrdered / SchedulePinnedAtOrdered — so the deferred event
  // interleaves with all other same-timestamp events precisely as the
  // immediately scheduled one did.
  std::uint64_t ReserveOrder() { return next_order_++; }
  // ScheduleAt with a caller-supplied order stamp from ReserveOrder().
  // `order` must not have been used by another event; events at equal `when`
  // execute in increasing order-stamp sequence.
  EventId ScheduleAtOrdered(Time when, std::uint64_t order,
                            UniqueFunction<void()> fn);

  // Cancels a pending event. Cancelling an already-executed or invalid id is
  // a harmless no-op.
  void Cancel(EventId id);

  // --- Pinned events ------------------------------------------------------
  // A pinned event owns its callback for the lifetime of the registration;
  // arming an occurrence moves no closure and allocates nothing. At most one
  // occurrence may be armed at a time (re-arm from inside the callback is
  // fine — the occurrence has un-armed by then).
  PinnedEventId CreatePinned(UniqueFunction<void()> fn);
  void SchedulePinnedAt(PinnedEventId id, Time when);
  void SchedulePinnedAtOrdered(PinnedEventId id, Time when,
                               std::uint64_t order);
  // Disarms the pending occurrence, if any (the registration survives).
  void CancelPinned(PinnedEventId id);
  bool PinnedArmed(PinnedEventId id) const;
  // Releases the registration (disarming it first). The id is dead after.
  void DestroyPinned(PinnedEventId id);

  // Executes events until the queue is empty or Stop() is called.
  void Run();
  // Executes events with timestamp <= `until`, then advances the clock to
  // `until` (if the run was not stopped early).
  void RunUntil(Time until);
  void RunFor(Time duration) { RunUntil(now_ + duration); }

  // Executes the earliest pending event plus every other event scheduled for
  // the same instant (including ones they chain at that instant), in FIFO
  // order, touching only the wheel bucket(s) that hold the instant. Returns
  // the number of events executed (0 when nothing is pending).
  std::size_t ExecuteBatch();

  // Earliest pending live-event time; false when no live events remain. A
  // Timer whose deadline was deferred keeps its earlier event queued, so
  // this can report a time at which no model callback runs.
  bool PeekNextTime(Time* out);

  // Stops the run loop after the currently executing event returns.
  void Stop() { stopped_ = true; }

  std::uint64_t events_executed() const { return events_executed_; }
  // Entries currently sitting in the heaps, including cancelled ones not yet
  // pruned. Computed on demand (test/diagnostic use) so the hot path keeps
  // no counter.
  std::size_t pending_events() const;
  // Scheduled events that have neither executed nor been cancelled. Unlike
  // pending_events() this excludes cancelled entries still in the heaps, and
  // it is the invariant the cancellation bookkeeping is bounded by.
  std::size_t live_events() const { return live_count_; }
  // Whether the timing wheel has engaged (test/diagnostic use).
  bool wheel_engaged() const { return wheel_on_; }
  // Bytes the wheel holds for entries: the block slab plus the dispatch
  // array, by capacity (test/diagnostic use).
  std::size_t wheel_storage_bytes() const;

 private:
  // Heap entries are POD: the callback lives in its slot and only this
  // 24-byte record moves during sift-up/down and bucket sorts. `order`
  // breaks ties FIFO. The top bit of `slot` routes the entry to the
  // pinned-slot arena instead of the one-shot slot array.
  struct HeapEntry {
    Time when;
    std::uint64_t order = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };
  static constexpr std::uint32_t kPinnedBit = 0x80000000u;
  // Min-heap order: earliest time first; FIFO among equal times.
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.order > b.order;
    }
  };
  // Ascending (when, order): the sort order of a visited bucket.
  struct Earlier {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return Later{}(b, a);
    }
  };
  // Wheel storage. Every entry of a bucket shares the bucket's 256 ns
  // slice. A bucket the dispatcher has not reached is a chain of blocks
  // from the shared slab, filled in push order; only the last block of a
  // chain is partly filled. The one visited bucket has an empty chain: its
  // pending entries sit sorted in dispatch_[dispatch_head_..].
  static constexpr std::uint32_t kBlockEntries = 15;
  static constexpr std::uint32_t kNoBlock = UINT32_MAX;
  struct Block {
    HeapEntry entries[kBlockEntries];
    std::uint32_t count = 0;
    std::uint32_t next = kNoBlock;  // next block of the chain or free list
  };
  struct Bucket {
    std::uint32_t first = kNoBlock;
    std::uint32_t last = kNoBlock;
  };
  // A slot holds one pending one-shot callback. `gen` increments every time
  // the slot is released (executed or cancelled); heap entries and EventIds
  // carrying an older generation are stale. A slot in the free list
  // therefore never matches any outstanding id. (A tag can alias only after
  // 2^32 reuses of one slot between issuing an id and cancelling it — timers
  // re-arm their ids long before that.)
  struct Slot {
    UniqueFunction<void()> fn;
    std::uint32_t gen = 0;
  };
  // Pinned registrations live in fixed-size chunks so their addresses are
  // stable: the callback runs in place, with no per-occurrence move, even if
  // registering more pinned events grows the arena mid-callback. One-shot
  // slots stay in a flat vector (dispatch moves the callback out before
  // running it), keeping that hotter path a single indexed load.
  struct PinnedSlot {
    UniqueFunction<void()> fn;
    std::uint32_t gen = 0;
    bool armed = false;
  };

  // Near-horizon window: 1024 buckets of 256 ns cover 262 us —
  // serialization and propagation timescales land here; protocol timers
  // overflow.
  static constexpr int kWheelShift = 8;
  static constexpr std::size_t kWheelBuckets = 1024;
  static constexpr std::size_t kWheelMask = kWheelBuckets - 1;
  static constexpr std::size_t kNoBucket = kWheelBuckets;
  static constexpr std::size_t kOccWords = kWheelBuckets / 64;
  // The wheel engages (stickily, for the Simulator's lifetime) once the
  // overflow heap first reaches this many entries. Small runs — unit tests,
  // microbenches — never reach it and keep the exact single-heap hot path;
  // big runs flip early and stay engaged. The paper's websearch dumbbell
  // engages before its first event: the workload schedules all of its flow
  // arrivals up front (10,000 of them, ~10.2 k overflow entries at peak).
  // A k=16 fat-tree engages within its first ~61 k events. Because both
  // structures order by the same (when, order) key and every pop compares
  // the two tops, the executed sequence is identical in either mode, and
  // entries never migrate on engagement.
  static constexpr std::size_t kWheelEngagePending = 4096;

  static constexpr std::uint32_t kPinnedChunkShift = 6;
  static constexpr std::uint32_t kPinnedChunkSize = 1u << kPinnedChunkShift;
  static constexpr std::uint32_t kPinnedChunkMask = kPinnedChunkSize - 1;

  struct Storage;  // thread-local capacity cache, defined in simulator.cc

  static Storage& ThreadStorageCache();

  PinnedSlot& pinned(std::uint32_t i) {
    return pinned_chunks_[i >> kPinnedChunkShift][i & kPinnedChunkMask];
  }
  const PinnedSlot& pinned(std::uint32_t i) const {
    return pinned_chunks_[i >> kPinnedChunkShift][i & kPinnedChunkMask];
  }
  bool EntryLive(const HeapEntry& e) const {
    return (e.slot & kPinnedBit) == 0
               ? slots_[e.slot].gen == e.gen
               : pinned(e.slot & ~kPinnedBit).gen == e.gen;
  }

  // Inserts an entry into the wheel (when within the near-horizon window of
  // Now()) or the overflow heap. `when` must be >= Now().
  void Push(const HeapEntry& e);
  // Appends to bucket `idx`'s block chain.
  void Append(std::size_t idx, const HeapEntry& e);
  EventId ScheduleImpl(Time when, std::uint64_t order,
                       UniqueFunction<void()> fn);

  void MarkBucket(std::size_t idx) {
    occupancy_[idx >> 6] |= (1ull << (idx & 63));
  }
  void ClearBucket(std::size_t idx) {
    occupancy_[idx >> 6] &= ~(1ull << (idx & 63));
  }
  // First occupied masked bucket index in abs-bucket order starting at the
  // bucket holding Now(); kNoBucket when the wheel is empty.
  std::size_t FindOccupiedBucket() const;

  // Pops the earliest live event (pop-then-check: stale tops are popped and
  // discarded, which cannot reorder live events — a heap's top bounds all
  // its entries from below, so discarding it never hides an earlier live
  // one). Returns false when nothing live remains. This is the Run() hot
  // path: one pop per event, no pre-peek.
  bool PopNextLive(HeapEntry* out);
  // Where the earliest live event lives after pruning cancelled tops — the
  // peek-before-pop flavor for RunUntil / PeekNextTime / ExecuteBatch, which
  // must see the live top's time before committing to dispatch it. A bucket
  // top is always the visited bucket's head.
  enum class Peek { kNone, kBucket, kOverflow };
  Peek Locate();
  const HeapEntry& Top(Peek p) const {
    return p == Peek::kBucket ? dispatch_[dispatch_head_] : overflow_.front();
  }
  // Makes bucket `idx` the visited one and returns its head. On a change of
  // bucket the previous visited bucket's remainder goes back into its chain
  // (an event at Now() can land in a slice ahead of it), and `idx`'s chain
  // moves into the dispatch array, sorted, its blocks freed.
  const HeapEntry& Visit(std::size_t idx);
  // Removes the visited bucket's head entry.
  void PopVisitedHead();
  HeapEntry Pop(Peek p);
  void Dispatch(const HeapEntry& entry);

  Bucket buckets_[kWheelBuckets];
  std::uint64_t occupancy_[kOccWords] = {};
  std::vector<Block> blocks_;  // slab; chains and the free list index it
  std::uint32_t free_block_ = kNoBlock;
  std::vector<HeapEntry> dispatch_;  // the visited bucket, sorted
  std::size_t dispatch_head_ = 0;
  std::size_t visited_ = kNoBucket;
  std::vector<HeapEntry> overflow_;
  bool wheel_on_ = false;
  std::size_t wheel_count_ = 0;  // entries in chains and dispatch_
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::unique_ptr<PinnedSlot[]>> pinned_chunks_;
  std::uint32_t pinned_count_ = 0;
  std::vector<std::uint32_t> free_pinned_;
  std::size_t live_count_ = 0;
  Time now_ = Time::Zero();
  std::uint64_t next_order_ = 1;
  std::uint64_t events_executed_ = 0;
  bool stopped_ = false;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_SIM_SIMULATOR_H_
