// Batched delivery (Execution::deliver_plan_row + Process::on_receive_batch):
//  * the default on_receive_batch (loop of on_receive) is observationally
//    identical to the protocols' devirtualized overrides, for every
//    protocol kind — checked by running the same seeded executions with
//    the overrides masked behind a forwarding wrapper;
//  * a descending plan row matches a receiving_step-per-id loop in plan
//    order (up to the documented end-of-run granularity of Decision
//    step/chain stamps);
//  * deliver_plan_row edge cases (empty row, repeated row, already
//    delivered ids, crashed receiver).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "adversary/window_adversaries.hpp"
#include "protocols/factory.hpp"
#include "sim/window.hpp"

namespace aa::sim {
namespace {

using protocols::ProtocolKind;

/// Forwards everything to the wrapped process EXCEPT on_receive_batch,
/// which falls back to the Process default (per-envelope virtual loop) —
/// masking any batch override the inner protocol has.
class PerEnvelopeOnly final : public Process {
 public:
  explicit PerEnvelopeOnly(std::unique_ptr<Process> inner)
      : inner_(std::move(inner)) {}

  void on_start(Outbox& out) override { inner_->on_start(out); }
  void on_receive(const Envelope& env, Rng& rng, Outbox& out) override {
    inner_->on_receive(env, rng, out);
  }
  // on_receive_batch deliberately NOT overridden.
  void on_reset() override { inner_->on_reset(); }
  [[nodiscard]] int input() const override { return inner_->input(); }
  [[nodiscard]] int output() const override { return inner_->output(); }
  [[nodiscard]] int round() const override { return inner_->round(); }
  [[nodiscard]] int estimate() const override { return inner_->estimate(); }
  [[nodiscard]] const char* protocol_name() const override {
    return inner_->protocol_name();
  }

 private:
  std::unique_ptr<Process> inner_;
};

Execution make_exec(ProtocolKind kind, int n, int t, std::uint64_t seed,
                    bool mask_batch_override) {
  auto procs = protocols::make_processes(kind, t,
                                         protocols::split_inputs(n, 0.5));
  if (mask_batch_override) {
    for (auto& p : procs) {
      p = std::make_unique<PerEnvelopeOnly>(std::move(p));
    }
  }
  return Execution(std::move(procs), seed);
}

void expect_same_state(const Execution& a, const Execution& b) {
  ASSERT_EQ(a.n(), b.n());
  EXPECT_EQ(a.step_count(), b.step_count());
  EXPECT_EQ(a.decided_count(), b.decided_count());
  EXPECT_EQ(a.buffer().delivered_count(), b.buffer().delivered_count());
  for (ProcId p = 0; p < a.n(); ++p) {
    EXPECT_EQ(a.output(p), b.output(p)) << "proc " << p;
    EXPECT_EQ(a.process(p).round(), b.process(p).round()) << "proc " << p;
    EXPECT_EQ(a.process(p).estimate(), b.process(p).estimate())
        << "proc " << p;
  }
}

TEST(BatchDelivery, OverridesMatchDefaultLoopForAllKinds) {
  const int n = 10;
  const int t = 1;
  for (const ProtocolKind kind :
       {ProtocolKind::Reset, ProtocolKind::BenOr, ProtocolKind::Bracha,
        ProtocolKind::Forgetful}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Execution with_override = make_exec(kind, n, t, seed, false);
      Execution default_loop = make_exec(kind, n, t, seed, true);
      adversary::FairWindowAdversary fair_a;
      adversary::FairWindowAdversary fair_b;
      run_until_all_decided(with_override, fair_a, t, 5000);
      run_until_all_decided(default_loop, fair_b, t, 5000);
      expect_same_state(with_override, default_loop);
    }
  }
}

TEST(BatchDelivery, OverridesMatchUnderAdversarialOrderAndResets) {
  const int n = 12;
  const int t = 2;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Execution with_override =
        make_exec(ProtocolKind::Reset, n, t, seed, false);
    Execution default_loop = make_exec(ProtocolKind::Reset, n, t, seed, true);
    {
      adversary::SplitKeeperAdversary keeper;
      for (int w = 0; w < 8; ++w)
        run_acceptable_window(with_override, keeper, t);
    }
    {
      adversary::SplitKeeperAdversary keeper;
      for (int w = 0; w < 8; ++w)
        run_acceptable_window(default_loop, keeper, t);
    }
    expect_same_state(with_override, default_loop);

    adversary::RandomWindowAdversary rnd_a(t, 0.3, Rng(seed));
    adversary::RandomWindowAdversary rnd_b(t, 0.3, Rng(seed));
    for (int w = 0; w < 8; ++w)
      run_acceptable_window(with_override, rnd_a, t);
    for (int w = 0; w < 8; ++w)
      run_acceptable_window(default_loop, rnd_b, t);
    expect_same_state(with_override, default_loop);
  }
}

TEST(BatchDelivery, DescendingRowMatchesPerIdReceivingSteps) {
  const int n = 8;
  const int t = 1;
  Execution batched = make_exec(ProtocolKind::Reset, n, t, 7, false);
  Execution per_id = make_exec(ProtocolKind::Reset, n, t, 7, false);
  for (Execution* e : {&batched, &per_id}) {
    e->begin_window_batch();
    for (ProcId p = 0; p < n; ++p) e->sending_step(p);
  }
  ASSERT_EQ(batched.window_batch().ids().size(),
            per_id.window_batch().ids().size());

  // Deliver receiver 3's messages in descending sender order: one
  // deliver_plan_row vs one receiving_step per id, same order.
  std::vector<ProcId> descending;
  for (ProcId s = n - 1; s >= 0; --s) descending.push_back(s);
  std::size_t expected = 0;
  const WindowBatch batch = per_id.window_batch();
  for (ProcId s : descending) {
    for (MsgId id : batch.from_to(s, 3)) {
      per_id.receiving_step(id);
      ++expected;
    }
  }
  ASSERT_GT(expected, 0u);
  EXPECT_EQ(batched.deliver_plan_row(3, descending),
            static_cast<int>(expected));
  expect_same_state(batched, per_id);

  // Every message in the run is now retired: a second call is a no-op.
  EXPECT_EQ(batched.deliver_plan_row(3, descending), 0);
  expect_same_state(batched, per_id);
}

TEST(BatchDelivery, DeliverPlanRowEdgeCases) {
  const int n = 8;
  const int t = 1;
  Execution e = make_exec(ProtocolKind::Reset, n, t, 9, false);
  e.begin_window_batch();
  for (ProcId p = 0; p < n; ++p) e.sending_step(p);
  // Empty row: no-op.
  EXPECT_EQ(e.deliver_plan_row(2, {}), 0);
  EXPECT_EQ(e.buffer().delivered_count(), 0u);
  // An id already delivered per-id leaves the run; the rest of the row
  // still delivers, in plan order, exactly once.
  const std::vector<ProcId> row{5, 1, 7, 0, 2, 3, 4, 6};
  const MsgId taken = e.window_batch().from_to(7, 2)[0];
  e.receiving_step(taken);
  EXPECT_EQ(e.deliver_plan_row(2, row), n - 1);
  EXPECT_EQ(e.deliver_plan_row(2, row), 0);
  // Delivery to a crashed receiver is a driver bug, rejected before any
  // message is consumed.
  const std::size_t pending = e.buffer().pending_count();
  e.crash(0);
  EXPECT_THROW(e.deliver_plan_row(0, row), std::logic_error);
  EXPECT_EQ(e.buffer().pending_count(), pending);
}

}  // namespace
}  // namespace aa::sim
