// aa_lint self-test fixture: must trip EXACTLY the `banned-api` rule.
// MessageBuffer resolves every live id through its one dense direct index;
// the straggler hash tier (MsgIdMap) and the spill that moved ids into it
// were deleted, and a reintroduction of either must be caught.

namespace fixture {

struct MsgIdMap {};  // the finding: removed second id tier

struct Buffer {
  void spill_direct_index();  // the finding: removed spill
  MsgIdMap ids_;              // the finding: removed second id tier
};

}  // namespace fixture
