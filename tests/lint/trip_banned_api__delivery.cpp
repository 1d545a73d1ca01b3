// aa_lint self-test fixture: must trip EXACTLY the `banned-api` rule.
// Every delivery is a run through deliver_plan_row / receiving_step; the
// per-id deliver_run / deliver_lazy path and advance_window_keep_pending
// were deleted, and a reintroduction of any of them must be caught.

namespace fixture {

struct Engine {
  int deliver_run(int receiver);                 // the finding: removed API
  const int* deliver_lazy(int id, int receiver);  // the finding: removed API
  void advance_window_keep_pending();            // the finding: removed API
};

}  // namespace fixture
