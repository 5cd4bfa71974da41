// Generates the datasheet of the paper's two parts (Table 3's rows) via
// the complete flow: netlist -> layout -> routing -> timing -> power grid
// -> behavioral simulation -> Monte Carlo.
#include <cstdio>

#include "core/eval.h"

int main() {
  using namespace vcoadc;
  const core::ExecContext ctx;
  core::EvalRequest req;
  req.kind = core::EvalKind::kDatasheet;
  req.datasheet.n_samples = 1 << 14;
  req.datasheet.mc_runs = 5;
  for (const auto& spec :
       {core::AdcSpec::paper_40nm(), core::AdcSpec::paper_180nm()}) {
    req.spec = spec;
    const core::Datasheet ds = core::evaluate(req, ctx).datasheet;
    std::printf("%s\n", ds.render().c_str());
  }
  return 0;
}
