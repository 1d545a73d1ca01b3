// Outside-in span tracer for the traced benchmark run.
//
// Spans are recorded by the benchmark's traced replay around each call
// into a library module (sim, adversary, protocols, core, lens); nothing
// inside src/ is instrumented. Spans nest: a span's duration is charged to its
// parent as child time, so a layer's self time is its spans' durations
// minus the part their child spans cover. Spans are aggregated in memory
// per kind (total, child time, items processed) and reported when
// the run ends; the trial is the request every span of it belongs to.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>

#include "common.hpp"
#include "sim/process.hpp"

namespace pb {

enum class Layer : int { kSim, kAdversary, kProtocols, kCore, kLens, kCount };

inline const char* layer_name(Layer l) {
  static constexpr const char* kNames[] = {"sim", "adversary", "protocols",
                                           "core", "lens"};
  return kNames[static_cast<int>(l)];
}

/// One span kind per library call site the traced replay times.
enum class SpanKind : int {
  kTrialSetup,    ///< core: make_processes + Execution::reset
  kVerdict,       ///< core: agreement/validity verdict of a finished trial
  kAdvSetup,      ///< adversary: construction, prepare, destruction
  kPlan,          ///< adversary: plan_window_into
  kSchedule,      ///< adversary: AsyncAdversary::next
  kPublish,       ///< sim: begin_window_batch + n sending steps
  kValidate,      ///< sim: validate_window_plan
  kDeliver,       ///< sim: one window's deliver_plan_row calls
  kReset,         ///< sim: one window's resetting steps
  kCrash,         ///< sim: one window's chaos crashes
  kSweep,         ///< sim: end_window
  kAsyncRun,      ///< sim: the replayed run_async loop
  kProtoStart,    ///< protocols: Process::on_start
  kProtoReceive,  ///< protocols: on_receive / on_receive_batch
  kProtoReset,    ///< protocols: Process::on_reset
  kLensFold,      ///< lens: LatencyAccumulator::add
  kCount
};

inline Layer layer_of(SpanKind k) {
  switch (k) {
    case SpanKind::kTrialSetup:
    case SpanKind::kVerdict:
      return Layer::kCore;
    case SpanKind::kAdvSetup:
    case SpanKind::kPlan:
    case SpanKind::kSchedule:
      return Layer::kAdversary;
    case SpanKind::kProtoStart:
    case SpanKind::kProtoReceive:
    case SpanKind::kProtoReset:
      return Layer::kProtocols;
    case SpanKind::kLensFold:
      return Layer::kLens;
    default:
      return Layer::kSim;
  }
}

struct SpanStat {
  std::int64_t total_ns = 0;
  std::int64_t child_ns = 0;
  std::int64_t items = 0;
  [[nodiscard]] std::int64_t self_ns() const { return total_ns - child_ns; }
};

class Tracer {
 public:
  void begin(SpanKind k) {
    if (depth_ == static_cast<int>(stack_.size())) {
      throw std::logic_error("perfbench tracer: span nesting too deep");
    }
    stack_[static_cast<std::size_t>(depth_++)] = {k, Clock::now(), 0};
  }

  void end(std::int64_t items) {
    const Clock::time_point now = Clock::now();
    const Frame& f = stack_[static_cast<std::size_t>(--depth_)];
    const std::int64_t d =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - f.start)
            .count();
    SpanStat& s = stats_[static_cast<std::size_t>(f.kind)];
    s.total_ns += d;
    s.child_ns += f.child_ns;
    s.items += items;
    if (depth_ > 0) stack_[static_cast<std::size_t>(depth_ - 1)].child_ns += d;
  }

  [[nodiscard]] const SpanStat& stat(SpanKind k) const {
    return stats_[static_cast<std::size_t>(k)];
  }

  [[nodiscard]] std::int64_t layer_self_ns(Layer l) const {
    std::int64_t sum = 0;
    for (int k = 0; k < static_cast<int>(SpanKind::kCount); ++k) {
      if (layer_of(static_cast<SpanKind>(k)) == l) {
        sum += stats_[static_cast<std::size_t>(k)].self_ns();
      }
    }
    return sum;
  }

 private:
  struct Frame {
    SpanKind kind = SpanKind::kCount;
    Clock::time_point start;
    std::int64_t child_ns = 0;
  };
  std::array<Frame, 8> stack_{};
  int depth_ = 0;
  std::array<SpanStat, static_cast<std::size_t>(SpanKind::kCount)> stats_{};
};

/// RAII span; `items` is the work the span processed (messages, ...).
class Span {
 public:
  Span(Tracer& t, SpanKind k, std::int64_t items = 0) : t_(t), items_(items) {
    t_.begin(k);
  }
  ~Span() { t_.end(items_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_items(std::int64_t items) { items_ = items; }

 private:
  Tracer& t_;
  std::int64_t items_;
};

/// Forwarding Process decorator: times the protocol's entry points and
/// forwards every call unchanged, so a traced execution takes exactly the
/// steps the undecorated one takes.
class TracedProcess final : public aa::sim::Process {
 public:
  TracedProcess(std::unique_ptr<aa::sim::Process> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void on_start(aa::sim::Outbox& out) override {
    Span s(tracer_, SpanKind::kProtoStart, 1);
    inner_->on_start(out);
  }
  void on_receive(const aa::sim::Envelope& env, aa::Rng& rng,
                  aa::sim::Outbox& out) override {
    Span s(tracer_, SpanKind::kProtoReceive, 1);
    inner_->on_receive(env, rng, out);
  }
  void on_receive_batch(std::span<const aa::sim::Envelope* const> envs,
                        aa::Rng& rng, aa::sim::Outbox& out) override {
    Span s(tracer_, SpanKind::kProtoReceive,
           static_cast<std::int64_t>(envs.size()));
    inner_->on_receive_batch(envs, rng, out);
  }
  void on_reset() override {
    Span s(tracer_, SpanKind::kProtoReset, 1);
    inner_->on_reset();
  }

  [[nodiscard]] int input() const override { return inner_->input(); }
  [[nodiscard]] int output() const override { return inner_->output(); }
  [[nodiscard]] int round() const override { return inner_->round(); }
  [[nodiscard]] int estimate() const override { return inner_->estimate(); }
  [[nodiscard]] const char* protocol_name() const override {
    return inner_->protocol_name();
  }

 private:
  std::unique_ptr<aa::sim::Process> inner_;
  Tracer& tracer_;
};

}  // namespace pb
