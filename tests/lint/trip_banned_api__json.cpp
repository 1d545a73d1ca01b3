// aa_lint self-test fixture: must trip EXACTLY the `banned-api` rule.
// Every artifact is a util::Json document written by util::write_file_atomic
// and read back by util::Json::parse; the bench-only BenchJson emitter, the
// campaign's json_kv / json_find_* hand-coders and write_campaign_json were
// deleted, and a reintroduction of any of them must be caught.
#include "bench_json.hpp"  // the finding: removed header

namespace fixture {

struct BenchJson {};  // the finding: removed emitter

void emit() {
  json_kv(0, "campaign", "x");       // the finding: removed emitter
  json_find_int("{}", "trials", 0);  // the finding: removed scanner
  write_campaign_json(0, "out");     // the finding: removed writer
}

}  // namespace fixture
