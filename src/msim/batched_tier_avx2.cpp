// AVX2 tier of the lockstep kernel. The build compiles this TU with -mavx2
// (and deliberately WITHOUT -mfma: fused contraction would change per-lane
// results vs the other tiers) when the toolchain targets x86; otherwise it
// is plain portable C++ and the runtime CPUID probe keeps it unselected.
#include "msim/batched_lockstep.h"

namespace vcoadc::msim::lockstep::tier_avx2 {

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

}  // namespace vcoadc::msim::lockstep::tier_avx2
