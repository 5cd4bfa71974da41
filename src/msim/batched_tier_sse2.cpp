// SSE2 tier of the lockstep kernel, the floor of the tier ladder: baseline
// codegen with no -m flags. On x86-64 (SSE2 is architectural there) every
// kernel vector operation packs 2 doubles; on other hosts this TU is plain
// portable C++, and the dispatcher runs it there.
#include "msim/batched_lockstep.h"

namespace vcoadc::msim::lockstep::tier_sse2 {

namespace {
void run_w2(const BatchedSetup& s, BatchedWorkspace& ws) {
  run_lockstep<2>(s, ws);
}
void run_w4(const BatchedSetup& s, BatchedWorkspace& ws) {
  run_lockstep<4>(s, ws);
}
void run_w8(const BatchedSetup& s, BatchedWorkspace& ws) {
  run_lockstep<8>(s, ws);
}
}  // namespace

const LockstepTable& table() {
  static const LockstepTable t{&run_w2, &run_w4, &run_w8, &lane_bits_lt<2>,
                               &lane_bits_lt<4>, &lane_bits_lt<8>};
  return t;
}

}  // namespace vcoadc::msim::lockstep::tier_sse2
