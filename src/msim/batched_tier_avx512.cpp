// AVX-512 tier of the lockstep kernel. The build compiles this TU with
// -mavx512f/dq/vl/bw plus -ffp-contract=off when the toolchain targets x86
// (-mavx512f implies FMA availability, and GCC's default contraction would
// fuse a*b+c here and break the cross-tier bit-identity contract — the
// other tiers avoid this only because their ISAs carry no FMA); otherwise
// it is plain portable C++ and the runtime CPUID probe keeps it unselected.
#include "msim/batched_lockstep.h"

namespace vcoadc::msim::lockstep::tier_avx512 {

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

}  // namespace vcoadc::msim::lockstep::tier_avx512
