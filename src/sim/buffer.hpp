// MessageBuffer: the in-flight message store of §2, backed by a recycling
// slot arena.
//
// The adversary has full information: it can inspect every pending envelope.
// Delivery and drops are explicit engine events; a message is in exactly one
// of three states: pending, delivered, dropped. (Dropping models the
// acceptable-window semantics where messages from silenced senders are never
// delivered; the async crash model never drops except to crashed receivers.)
//
// Arena design (the O(live) rewrite, now SoA):
//   * MsgIds stay monotonically increasing — the adversary-visible identity
//     and all iteration orders are unchanged from the append-only store.
//   * Each live (pending) message occupies one reusable slot; delivered and
//     dropped messages release their slot immediately, so memory is
//     O(peak live messages), independent of execution length.
//   * Slot storage is struct-of-arrays: the intrusive list links (`links_`),
//     the 16-byte hot metadata the delivery walk filters on (`meta_`: id,
//     receiver, sender), and the full envelopes (`envs_`) live in three
//     lockstep arrays. The per-receiver delivery walk and the plan
//     validation scan touch one metadata cache line per four messages
//     instead of a full Envelope each.
//   * Ids resolve to slots through ONE dense direct-index array: every id
//     in [direct_base_, next_id_) has an entry (one bounds-checked load, no
//     hashing), and a recycled slot's stale entry is disarmed by the slot's
//     metadata id. Ids below direct_base_ are all retired. The window-edge
//     sweep retires the whole range in O(1) once nothing is pending — see
//     drop_pending_in_window — so a window run keeps the index one window
//     long; a run whose buffer never drains (messages to a crashed
//     receiver in the async regime) grows it by 4 bytes per id sent.
//   * Slots are threaded onto two intrusive doubly-linked lists — one per
//     receiver and one per send-window — kept in ascending-id (send) order.
//     pending_to / pending_in_window / all_pending iterate those lists in
//     O(result), and drop_pending_in_window retires exactly the window's
//     own leftovers. Publication only ever goes into the newest window, so
//     each window's ids form one unbroken run; its list records that range
//     ([first_id, last_id]), which the bulk delivery run uses as a
//     branch-free window test.
//
// Because slots recycle, envelope lookups are only valid for PENDING ids:
// querying a retired id throws (std::logic_error), and is_pending(id) is the
// only question that can be asked about the whole history.
//
// Envelope-view invalidation contract: references returned by
// get()/iteration and the views handed out by mark_delivered /
// deliver_window_run_to point into the envelope array `envs_`. Every
// delivery retires its slot at once (off both lists, off the id index,
// onto the free list), but a retired slot keeps its envelope bytes until
// the slot is reused — so there is exactly ONE invalidation point: the
// next publication (a single add() OR any add_batch()), which may reuse a
// freed slot or grow the envelope array. Neither the window sweep nor
// range retirement (the O(1) window-edge rewind of the direct index)
// touches envelope storage. Within one acceptable window the engine
// publishes first and delivers after, so views collected during the
// delivery phase stay valid through the protocol call that consumes them;
// holders that outlive a publication (anything keeping a view across
// sending steps) must copy the envelope out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace aa::lens {
class WindowTrace;
}  // namespace aa::lens

namespace aa::sim {

/// Test-only backdoor used by the auditor self-test to plant corruptions
/// (defined in tests/sim/test_audit.cpp; never part of the library).
struct AuditTestAccess;

class MessageBuffer {
 public:
  explicit MessageBuffer(int n);

  /// Restore the freshly-constructed state for `n` processors while
  /// KEEPING every capacity the previous run grew (slot arena, direct
  /// index, receiver lists, window ring) — the campaign
  /// trial-reuse path: after the first trial warms a worker's buffer up,
  /// later same-shape trials allocate nothing. Observable behaviour is
  /// identical to a fresh MessageBuffer(n): ids restart at 0 and every
  /// list is empty.
  void reset(int n);

  /// Add a new in-flight message; returns its id.
  MsgId add(ProcId sender, ProcId receiver, const Message& payload,
            std::int64_t window, std::int64_t chain);

  /// Bulk publication: add `sender`'s staged run in staging order, exactly
  /// as items.size() consecutive add() calls would — ids are consecutive
  /// starting at the returned value, receiver lists stay ascending-id, and
  /// every iteration order is unchanged. One pass allocates the slot run,
  /// splices the whole run onto the window list in a single attach, and
  /// extends the dense direct index. `window` must be the newest window
  /// published into so far or a later one (std::invalid_argument
  /// otherwise), which keeps every window's ids one unbroken range.
  /// Returns the first id of the run (== total_sent() before the call,
  /// also for an empty run).
  MsgId add_batch(ProcId sender, std::span<const StagedMessage> items,
                  std::int64_t window, std::int64_t chain);

  /// Envelope lookup. Valid for PENDING ids only (retired slots recycle).
  [[nodiscard]] const Envelope& get(MsgId id) const;

  /// True iff `id` is live. Retired (delivered/dropped) ids return false;
  /// ids never issued throw.
  [[nodiscard]] bool is_pending(MsgId id) const;

  /// Transition pending → delivered and recycle the slot. Precondition:
  /// pending (a retired id throws std::logic_error). Returns a view of the
  /// delivered envelope, valid until the next publication.
  const Envelope& mark_delivered(MsgId id);

  /// The window delivery walk behind Execution::deliver_plan_row. Walks
  /// `receiver`'s pending list once, in list (id) order, and delivers
  /// every message sent in window `w` whose sender is selected: all of
  /// them when `sender_stamp` is null, else exactly those with
  /// sender_stamp[sender] == epoch. The window test is the window list's
  /// recorded id range (one metadata compare, no envelope touch). Each
  /// delivered slot is retired on the spot, exactly as mark_delivered
  /// retires one; unselected messages stay pending, relinked in the same
  /// pass. Appends
  /// one envelope view per delivery to `out` (valid until the next
  /// publication) and returns the number delivered.
  int deliver_window_run_to(ProcId receiver, std::int64_t w,
                            const std::uint64_t* sender_stamp,
                            std::uint64_t epoch,
                            std::vector<const Envelope*>& out);

  /// Transition pending → dropped and recycle the slot. Precondition:
  /// pending.
  void mark_dropped(MsgId id);

  /// Drop every still-pending message sent during window `w` by walking
  /// only that window's own pending list. Returns the number dropped.
  /// Range retirement: when the sweep leaves NO pending message anywhere
  /// (the steady state of the acceptable-window regime, where every window
  /// ends empty), the whole direct index [direct_base_, next_id_) is
  /// retired in O(1): direct_base_ jumps to next_id_.
  std::size_t drop_pending_in_window(std::int64_t w);

  /// Install (or clear, with nullptr) the accountability lens: every drop
  /// of a still-PENDING message — mark_dropped or the end-of-window sweep —
  /// reports (sender, receiver) to trace->on_suppress. Delivered messages
  /// never reach the sweep, so they are never suppressions. The trace
  /// outlives the buffer's run; Execution re-installs it on construction
  /// and reset.
  void set_trace(lens::WindowTrace* trace) noexcept { trace_ = trace; }

  // ---- allocation-free iteration (ascending-id order) --------------------
  //
  // Ranges yield `const Envelope&`. Iterators prefetch their successor, so
  // retiring the CURRENT element (mark_delivered / mark_dropped) while
  // iterating is safe; retiring any other element or adding messages
  // mid-iteration is not.

  class PendingIterator {
   public:
    PendingIterator(const MessageBuffer* buf, std::int32_t slot)
        : buf_(buf), cur_(slot) {
      prefetch();
    }
    const Envelope& operator*() const;
    PendingIterator& operator++() {
      cur_ = next_;
      prefetch();
      return *this;
    }
    bool operator!=(const PendingIterator& o) const { return cur_ != o.cur_; }
    bool operator==(const PendingIterator& o) const { return cur_ == o.cur_; }

   private:
    void prefetch();

    const MessageBuffer* buf_;
    std::int32_t cur_;
    std::int32_t next_ = -1;
  };

  class WindowIterator {
   public:
    WindowIterator(const MessageBuffer* buf, std::int32_t slot,
                   std::int64_t window, bool all_windows)
        : buf_(buf), cur_(slot), window_(window), all_windows_(all_windows) {
      if (all_windows_) advance_to_nonempty_window();
      prefetch();
    }
    const Envelope& operator*() const;
    WindowIterator& operator++() {
      cur_ = next_;
      if (all_windows_ && cur_ < 0) advance_to_nonempty_window();
      prefetch();
      return *this;
    }
    bool operator!=(const WindowIterator& o) const { return cur_ != o.cur_; }
    bool operator==(const WindowIterator& o) const { return cur_ == o.cur_; }

   private:
    void advance_to_nonempty_window();
    void prefetch();

    const MessageBuffer* buf_;
    std::int32_t cur_;
    std::int32_t next_ = -1;
    std::int64_t window_;  ///< window of cur_ (all_windows) or the filter
    bool all_windows_;
  };

  template <typename Iter>
  class Range {
   public:
    Range(Iter begin, Iter end) : begin_(begin), end_(end) {}
    [[nodiscard]] Iter begin() const { return begin_; }
    [[nodiscard]] Iter end() const { return end_; }
    [[nodiscard]] bool empty() const { return !(begin_ != end_); }

   private:
    Iter begin_;
    Iter end_;
  };

  /// All pending messages addressed to `receiver` (send order).
  [[nodiscard]] Range<PendingIterator> pending_to(ProcId receiver) const;

  /// All pending messages sent during window `w` (send order).
  [[nodiscard]] Range<WindowIterator> pending_in_window(std::int64_t w) const;

  /// Every pending message (send order).
  [[nodiscard]] Range<WindowIterator> all_pending() const;

  // ---- allocating conveniences (diagnostics / tests) ---------------------

  [[nodiscard]] std::vector<MsgId> pending_to_ids(ProcId receiver) const;
  [[nodiscard]] std::vector<MsgId> pending_in_window_ids(std::int64_t w) const;
  [[nodiscard]] std::vector<MsgId> all_pending_ids() const;

  // ---- counters and arena introspection ----------------------------------

  [[nodiscard]] std::size_t total_sent() const noexcept {
    return static_cast<std::size_t>(next_id_);
  }
  [[nodiscard]] std::size_t pending_count() const noexcept { return pending_; }
  [[nodiscard]] std::size_t delivered_count() const noexcept {
    return delivered_;
  }
  [[nodiscard]] std::size_t dropped_count() const noexcept { return dropped_; }
  [[nodiscard]] int n() const noexcept { return n_; }

  /// Slots ever materialized — the arena's high-water mark. Stays flat once
  /// the peak live load is reached, no matter how long the run is.
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return envs_.size();
  }
  /// Allocated arena slots — unlike slot_capacity(), this survives reset():
  /// the trial-reuse path rewinds the materialized span but keeps the
  /// allocation, so steady-state trials re-materialize allocation-free.
  [[nodiscard]] std::size_t slot_reserve() const noexcept {
    return envs_.capacity();
  }

  /// Opt-in invariant auditor: verify the full arena state — receiver and
  /// window lists (doubly-linked, acyclic, ascending-id, field-consistent,
  /// ids within the window list's recorded range), id resolution (every
  /// pending id is at or above the direct base and resolves through the
  /// direct index to its own slot), SoA lockstep (metadata id mirrors the
  /// envelope id on every live slot), free-list integrity, and that every
  /// slot is in exactly one of {pending, free} with the lifecycle counters
  /// summing to total_sent(). Throws std::logic_error on the first violation.
  /// O(slots) with scratch allocation — meant for window boundaries under
  /// ExecutionConfig::audit, self-tests, and post-reset validation, not the
  /// hot path.
  void audit() const;

 private:
  friend class PendingIterator;
  friend class WindowIterator;
  friend struct AuditTestAccess;

  /// Intrusive list links, one entry per slot (SoA: kept apart from the
  /// metadata and envelope arrays so list surgery touches only this).
  struct Link {
    std::int32_t prev_rcv = -1;
    std::int32_t next_rcv = -1;  ///< doubles as the free-list link
    std::int32_t prev_win = -1;
    std::int32_t next_win = -1;
  };

  /// Hot 16-byte per-slot metadata: everything the delivery walk and the
  /// plan-validation scan filter on. `id` is the slot's only liveness
  /// marker: kNoMsg means the slot is free (its envelope keeps the retired
  /// message's bytes until the slot is reused).
  struct Meta {
    MsgId id = kNoMsg;
    ProcId receiver = -1;
    ProcId sender = -1;
  };

  /// One send-window's pending list plus its member id range. The list
  /// holds pending slots only (delivered and dropped ids leave it at once).
  /// `first_id` / `last_id` bound every id ever linked onto the list. Only
  /// the newest window takes publications, so no other window's ids fall
  /// between them: membership in [first_id, last_id] is EXACT for pending
  /// slots, giving deliver_window_run_to a window test that never touches
  /// the envelope.
  struct WinList {
    std::int32_t head = -1;
    std::int32_t tail = -1;
    MsgId first_id = kNoMsg;
    MsgId last_id = kNoMsg;
  };

  /// Slot index for a live id; kNoSlot when retired. Throws on ids never
  /// issued. Ids below direct_base_ are retired; the rest resolve through
  /// the direct index.
  [[nodiscard]] std::int32_t slot_of(MsgId id) const;
  /// Unlink from both lists, then release().
  void retire(std::int32_t slot);
  /// Clear the slot's id and push it onto the free list. The caller has
  /// already unlinked it from the receiver list and, outside the window
  /// sweep, from its window list.
  void release(std::int32_t slot);
  void unlink_receiver(std::int32_t slot);
  void unlink_window(std::int32_t slot, WinList& wl);
  /// Pop leading empty window lists (the newest list always survives so a
  /// re-send into the current window can extend it).
  void trim_window_ring();

  [[nodiscard]] WinList& win_list(std::int64_t w) {
    return win_ring_[static_cast<std::size_t>(
        (win_begin_ + static_cast<std::size_t>(w - win_base_)) & win_mask_)];
  }
  [[nodiscard]] const WinList& win_list(std::int64_t w) const {
    return win_ring_[static_cast<std::size_t>(
        (win_begin_ + static_cast<std::size_t>(w - win_base_)) & win_mask_)];
  }
  /// Ensure the ring covers window w (extending with empty lists).
  void reserve_window(std::int64_t w);

  int n_;
  // SoA slot arena: three lockstep arrays (see Link / Meta above; envs_ is
  // the canonical envelope storage every view points into).
  std::vector<Link> links_;
  std::vector<Meta> meta_;
  std::vector<Envelope> envs_;
  std::int32_t free_head_ = -1;

  // Id → slot resolution. direct_slots_[id - direct_base_] is the slot
  // that id was assigned to, for every id in [direct_base_, next_id_)
  // (stale entries are disarmed by the meta_ id check — a recycled slot
  // carries a different id). Every id below direct_base_ is retired.
  MsgId next_id_ = 0;
  MsgId direct_base_ = 0;
  std::vector<std::int32_t> direct_slots_;

  std::vector<std::int32_t> rcv_head_;
  std::vector<std::int32_t> rcv_tail_;

  // Circular buffer of per-window pending lists for windows
  // [win_base_, win_base_ + win_count_).
  std::vector<WinList> win_ring_;
  std::size_t win_begin_ = 0;
  std::size_t win_mask_ = 0;
  std::size_t win_count_ = 0;
  std::int64_t win_base_ = 0;

  std::size_t pending_ = 0;
  std::size_t delivered_ = 0;
  std::size_t dropped_ = 0;

  /// Accountability lens (owned by the caller; null = lens off).
  lens::WindowTrace* trace_ = nullptr;
};

}  // namespace aa::sim
