// Per-stack flow hot-state arena: struct-of-arrays storage for the
// congestion-control fields every ACK touches.
//
// A TcpSender keeps its hot fields (cwnd, ssthresh, srtt/rttvar, the RTT
// probe stamp) behind pointers. Standalone senders point at their own local
// storage; a TcpStack re-homes each sender it creates into this arena via
// TcpSender::BindFlowHotState, so all flows on a host share dense, chunked
// column arrays instead of scattering one cache line per sender object. The
// arithmetic never changes — binding copies current values and repoints —
// so bound and unbound senders run byte-identically (transport_test pins
// this).
//
// Mirrors net/chip_hot_state.h: chunked columns keep row addresses stable
// as the arena grows, and a bump arena lets derived controllers (CUBIC's
// epoch state) co-locate private POD state without the base layer knowing
// its type.
#ifndef ECNSHARP_TRANSPORT_FLOW_HOT_STATE_H_
#define ECNSHARP_TRANSPORT_FLOW_HOT_STATE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/time.h"

namespace ecnsharp {

// One flow's row: stable pointers into the arena's column chunks.
struct FlowHotRow {
  double* cwnd = nullptr;
  double* ssthresh = nullptr;
  Time* srtt = nullptr;
  Time* rttvar = nullptr;
  Time* probe_sent_at = nullptr;
  bool* rtt_valid = nullptr;
};

class FlowHotArena {
 public:
  FlowHotArena() = default;
  FlowHotArena(const FlowHotArena&) = delete;
  FlowHotArena& operator=(const FlowHotArena&) = delete;

  // Allocates the next flow's row (zero-initialized) and returns stable
  // pointers into the column chunks. Rows are never freed individually —
  // flows on a stack are tracked for the lifetime of the run anyway.
  FlowHotRow AllocRow() {
    const std::size_t chunk = flow_count_ >> kRowChunkShift;
    const std::size_t slot = flow_count_ & (kRowsPerChunk - 1);
    if (chunk == chunks_.size()) {
      chunks_.push_back(std::make_unique<ColumnChunk>());
    }
    ++flow_count_;
    ColumnChunk& c = *chunks_[chunk];
    c.cwnd[slot] = 0.0;
    c.ssthresh[slot] = 0.0;
    c.srtt[slot] = Time::Zero();
    c.rttvar[slot] = Time::Zero();
    c.probe_sent_at[slot] = Time::Zero();
    c.rtt_valid[slot] = false;
    return FlowHotRow{&c.cwnd[slot],   &c.ssthresh[slot],
                      &c.srtt[slot],   &c.rttvar[slot],
                      &c.probe_sent_at[slot], &c.rtt_valid[slot]};
  }

  std::size_t flow_count() const { return flow_count_; }

  // Visits every allocated row in allocation order (telemetry sweeps read
  // columns densely instead of chasing one sender object per flow).
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (std::size_t i = 0; i < flow_count_; ++i) {
      const ColumnChunk& c = *chunks_[i >> kRowChunkShift];
      const std::size_t slot = i & (kRowsPerChunk - 1);
      fn(c.cwnd[slot], c.ssthresh[slot], c.srtt[slot], c.rtt_valid[slot]);
    }
  }

  // Bump-allocates controller-private POD state next to the flow rows.
  // Value-initialized; never individually freed.
  template <typename T>
  T* Emplace() {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena state is never destroyed individually");
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "over-aligned types are not supported");
    const std::size_t size =
        (sizeof(T) + kArenaAlign - 1) / kArenaAlign * kArenaAlign;
    if (arena_chunks_.empty() || arena_used_ + size > kArenaChunkBytes) {
      arena_chunks_.push_back(
          std::make_unique<unsigned char[]>(kArenaChunkBytes));
      arena_used_ = 0;
    }
    unsigned char* p = arena_chunks_.back().get() + arena_used_;
    arena_used_ += size;
    return new (p) T();
  }

 private:
  static constexpr std::size_t kRowChunkShift = 3;  // 8 rows per chunk
  static constexpr std::size_t kRowsPerChunk = std::size_t{1} << kRowChunkShift;
  static constexpr std::size_t kArenaChunkBytes = 4096;
  static constexpr std::size_t kArenaAlign = alignof(std::max_align_t);

  struct ColumnChunk {
    double cwnd[kRowsPerChunk];
    double ssthresh[kRowsPerChunk];
    Time srtt[kRowsPerChunk];
    Time rttvar[kRowsPerChunk];
    Time probe_sent_at[kRowsPerChunk];
    bool rtt_valid[kRowsPerChunk];
  };

  std::vector<std::unique_ptr<ColumnChunk>> chunks_;
  std::size_t flow_count_ = 0;
  std::vector<std::unique_ptr<unsigned char[]>> arena_chunks_;
  std::size_t arena_used_ = 0;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_TRANSPORT_FLOW_HOT_STATE_H_
