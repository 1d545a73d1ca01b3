// aa_lint self-test fixture: must trip EXACTLY the `banned-api` rule.
// The positional run_*_experiment wrappers, their core/harness.hpp header
// and the FIFO ThreadPool were replaced by Experiment + Runner and
// WorkStealingPool; a reintroduction of any of them must be caught.
#include "core/harness.hpp"  // the finding: removed header

namespace fixture {

struct ThreadPool {};  // the finding: removed pool type

void run() {
  run_window_experiment(0, 1);            // the finding: removed wrapper
  run_async_experiment(0, 1);             // the finding: removed wrapper
  run_byzantine_window_experiment(0, 1);  // the finding: removed wrapper
}

}  // namespace fixture
