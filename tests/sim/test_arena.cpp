// Arena regression tests: the recycling MessageBuffer must keep live memory
// bounded over long horizons and preserve the append-only store's
// ascending-id iteration order exactly (checker reports depend on it).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "adversary/window_adversaries.hpp"
#include "protocols/factory.hpp"
#include "sim/window.hpp"
#include "util/rng.hpp"

namespace aa::sim {
namespace {

using protocols::ProtocolKind;

TEST(Arena, LiveSlotsStayBoundedAcross5kWindows) {
  const int n = 16;
  const int t = 2;
  Execution e(protocols::make_processes(ProtocolKind::Reset, t,
                                        protocols::split_inputs(n, 0.5)),
              7);
  adversary::SplitKeeperAdversary keeper;
  std::size_t capacity_after_warmup = 0;
  for (int w = 0; w < 5000; ++w) {
    run_acceptable_window(e, keeper, t);
    if (w == 99) capacity_after_warmup = e.buffer().slot_capacity();
  }
  // Every window ends empty (all of its messages delivered or dropped)...
  EXPECT_EQ(e.buffer().pending_count(), 0u);
  // ...so the arena's high-water mark is one window's n² burst, reached in
  // the first windows and never exceeded again — memory is independent of
  // the horizon even though 5000 · n² messages flowed through.
  EXPECT_EQ(e.buffer().slot_capacity(), capacity_after_warmup);
  EXPECT_LE(e.buffer().slot_capacity(),
            static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  EXPECT_EQ(e.buffer().total_sent(),
            5000u * static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
}

/// Reference model: the seed's append-only semantics, kept naive on purpose.
struct NaiveModel {
  struct Entry {
    MsgId id;
    ProcId sender;
    ProcId receiver;
    std::int64_t window;
    bool pending = true;
  };
  std::vector<Entry> all;

  // Ids are issued 0, 1, 2, ... and every id is added, so an id is its
  // entry's index.
  void add(MsgId id, ProcId s, ProcId r, std::int64_t w) {
    EXPECT_EQ(static_cast<std::size_t>(id), all.size());
    all.push_back(Entry{id, s, r, w, true});
  }
  void retire(MsgId id) { all[static_cast<std::size_t>(id)].pending = false; }
  [[nodiscard]] std::vector<MsgId> pending_to(ProcId r) const {
    std::vector<MsgId> out;
    for (const Entry& e : all) {
      if (e.pending && e.receiver == r) out.push_back(e.id);
    }
    return out;
  }
  [[nodiscard]] std::vector<MsgId> pending_in_window(std::int64_t w) const {
    std::vector<MsgId> out;
    for (const Entry& e : all) {
      if (e.pending && e.window == w) out.push_back(e.id);
    }
    return out;
  }
  [[nodiscard]] std::vector<MsgId> all_pending() const {
    std::vector<MsgId> out;
    for (const Entry& e : all) {
      if (e.pending) out.push_back(e.id);
    }
    return out;
  }
};

TEST(Arena, IterationOrderMatchesSeedIdOrderUnderChurn) {
  // Random interleaving of sends, deliveries, drops and window advances,
  // with long-lived stragglers (messages that stay pending for many
  // windows, async-style). After every mutation batch, every query must
  // agree with the naive ascending-id model — order included.
  const int n = 6;
  MessageBuffer buf(n);
  NaiveModel model;
  Rng rng(123);
  Message m;
  m.kind = 1;

  std::int64_t window = 0;
  for (int step = 0; step < 400; ++step) {
    // Send a few messages in the current window.
    const int sends = 1 + static_cast<int>(rng.uniform_index(5));
    for (int k = 0; k < sends; ++k) {
      const auto s = static_cast<ProcId>(rng.uniform_index(n));
      const auto r = static_cast<ProcId>(rng.uniform_index(n));
      const MsgId id = buf.add(s, r, m, window, 1);
      model.add(id, s, r, window);
    }
    // Deliver a random subset of what's pending (leaves stragglers behind).
    const auto pending = buf.all_pending_ids();
    for (MsgId id : pending) {
      if (rng.uniform_index(3) == 0) {
        buf.mark_delivered(id);
        model.retire(id);
      }
    }
    // Occasionally close the window seed-style (drop its leftovers) or
    // advance keeping everything pending.
    if (rng.uniform_index(4) == 0) {
      for (MsgId id : buf.pending_in_window_ids(window)) model.retire(id);
      buf.drop_pending_in_window(window);
      ++window;
    } else if (rng.uniform_index(4) == 0) {
      ++window;
    }

    EXPECT_EQ(buf.all_pending_ids(), model.all_pending());
    for (ProcId r = 0; r < n; ++r) {
      EXPECT_EQ(buf.pending_to_ids(r), model.pending_to(r));
    }
    for (std::int64_t w = window > 8 ? window - 8 : 0; w <= window; ++w) {
      EXPECT_EQ(buf.pending_in_window_ids(w), model.pending_in_window(w));
    }
    EXPECT_EQ(buf.pending_count(), model.all_pending().size());
  }
  EXPECT_GT(buf.total_sent(), 400u);
}

TEST(Arena, UndrainedWindowIndexesEveryIdDirectly) {
  // The crashed-receiver case: receiver 3's messages are never delivered,
  // so the buffer never drains and the window-edge rewind never fires.
  // Over 70,000 ids published into window 0, every id must still resolve
  // through the one direct index, with answers equal to the naive model.
  const int n = 4;
  const ProcId never = 3;
  MessageBuffer buf(n);
  NaiveModel model;
  Rng rng(2024);
  Message m;
  m.kind = 1;
  std::vector<StagedMessage> items;
  std::vector<const Envelope*> run;

  const auto check = [&] {
    for (ProcId r = 0; r < n; ++r) {
      EXPECT_EQ(buf.pending_to_ids(r), model.pending_to(r)) << "receiver "
                                                            << r;
    }
    for (std::size_t i = 0; i < model.all.size(); i += 37) {
      const NaiveModel::Entry& e = model.all[i];
      ASSERT_EQ(buf.is_pending(e.id), e.pending) << "id " << e.id;
      if (e.pending) {
        const Envelope& env = buf.get(e.id);
        EXPECT_EQ(env.sender, e.sender);
        EXPECT_EQ(env.receiver, e.receiver);
      } else {
        EXPECT_THROW((void)buf.get(e.id), std::logic_error);
      }
    }
    EXPECT_EQ(buf.pending_count(), model.all_pending().size());
    EXPECT_NO_THROW(buf.audit());
  };

  std::size_t next_check = 10000;
  while (buf.total_sent() < 70001) {
    const auto sender = static_cast<ProcId>(rng.uniform_index(n));
    items.clear();
    const std::size_t count = 1 + rng.uniform_index(16);
    for (std::size_t k = 0; k < count; ++k) {
      items.push_back({static_cast<ProcId>(rng.uniform_index(n)), m});
    }
    const MsgId first = buf.add_batch(sender, items, /*window=*/0, 1);
    for (std::size_t k = 0; k < count; ++k) {
      model.add(first + static_cast<MsgId>(k), sender, items[k].to, 0);
    }
    // Live receivers drain at random moments, so their messages linger.
    for (ProcId r = 0; r < n; ++r) {
      if (r == never || rng.uniform_index(2) == 0) continue;
      run.clear();
      buf.deliver_window_run_to(r, /*w=*/0, nullptr, 0, run);
      for (const Envelope* env : run) model.retire(env->id);
    }
    if (buf.total_sent() >= next_check) {
      check();
      next_check += 10000;
    }
  }
  ASSERT_GT(buf.total_sent(), 70000u);
  EXPECT_GT(buf.pending_count(), 0u);
  check();

  // Sweeping window 0 drains the buffer; every id is then retired.
  EXPECT_EQ(buf.drop_pending_in_window(0), model.all_pending().size());
  EXPECT_EQ(buf.pending_count(), 0u);
  EXPECT_NO_THROW(buf.audit());
  EXPECT_FALSE(buf.is_pending(0));
  EXPECT_FALSE(buf.is_pending(static_cast<MsgId>(buf.total_sent() - 1)));
}

TEST(Arena, RecycledSlotsKeepIdsDistinct) {
  // A slot reused by a later message must answer queries for the NEW id
  // only; the old id stays retired forever.
  MessageBuffer buf(2);
  Message m;
  m.kind = 1;
  const MsgId a = buf.add(0, 1, m, 0, 1);
  buf.mark_delivered(a);
  const MsgId b = buf.add(1, 0, m, 0, 1);  // reuses a's slot
  EXPECT_NE(a, b);
  EXPECT_FALSE(buf.is_pending(a));
  EXPECT_TRUE(buf.is_pending(b));
  EXPECT_THROW((void)buf.get(a), std::logic_error);
  EXPECT_EQ(buf.get(b).sender, 1);
  EXPECT_EQ(buf.slot_capacity(), 1u);
}

TEST(Arena, SlotDeliveredMidWindowIsReusedBeforeTheSweep) {
  // Delivery retires a slot at once: the next publication reuses it inside
  // the SAME window, before any drop_pending_in_window sweep runs, so the
  // arena does not grow — for the bulk walk and the per-id path alike.
  MessageBuffer buf(4);
  Message m;
  m.kind = 1;
  const std::vector<StagedMessage> to0(4, StagedMessage{0, m});
  const MsgId first = buf.add_batch(1, to0, /*window=*/0, 1);
  EXPECT_EQ(buf.slot_capacity(), 4u);
  std::vector<const Envelope*> run;
  EXPECT_EQ(buf.deliver_window_run_to(0, /*w=*/0, nullptr, 0, run), 4);
  ASSERT_EQ(run.size(), 4u);
  EXPECT_EQ(run.front()->id, first);  // views stay valid until publication

  const MsgId second = buf.add_batch(2, to0, /*window=*/0, 1);
  EXPECT_EQ(buf.slot_capacity(), 4u);
  for (MsgId id = second; id < second + 4; ++id) buf.mark_delivered(id);
  buf.add_batch(3, to0, /*window=*/0, 1);
  EXPECT_EQ(buf.slot_capacity(), 4u);
  EXPECT_EQ(buf.pending_count(), 4u);
  EXPECT_EQ(buf.delivered_count(), 8u);
  EXPECT_NO_THROW(buf.audit());
  EXPECT_EQ(buf.drop_pending_in_window(0), 4u);
  EXPECT_NO_THROW(buf.audit());
}

}  // namespace
}  // namespace aa::sim
