// Scalar tier of the lockstep kernel: compiled with the tree vectorizers
// disabled (see src/msim/CMakeLists.txt) so the portable per-lane code path
// stays genuinely scalar and exercisable on any host. Bit-identical to the
// other tiers by the no-FMA/no-reassociation contract in util/simd.h.
#include "msim/batched_lockstep.h"

namespace vcoadc::msim::lockstep::tier_scalar {

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

}  // namespace vcoadc::msim::lockstep::tier_scalar
