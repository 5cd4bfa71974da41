#include <gtest/gtest.h>

#include "core/artifact_cache.h"
#include "core/datasheet.h"

namespace vcoadc::core {
namespace {

TEST(Datasheet, AmplitudeSweepIsBitIdenticalAcrossWidths) {
  // The sweep points take the lane-batch path the MC draws take: five
  // points are one scalar stage each at width 1, 2 + 2 + 1 at width 2 and
  // 4 + 1 at width 8. A fresh cache per width makes every point simulate.
  AdcSpec spec = AdcSpec::paper_40nm();
  spec.num_slices = 4;
  auto sheet = [&spec](int width) {
    ArtifactCache cache(32);
    DatasheetOptions opts;
    opts.n_samples = 1 << 11;
    opts.amp_sweep_points = 5;
    opts.batch_width = width;
    opts.exec.cache = &cache;
    opts.exec.threads = 1;
    return generate_datasheet(spec, opts);
  };
  const Datasheet scalar = sheet(1);
  ASSERT_TRUE(scalar.complete);
  ASSERT_EQ(scalar.amp_sweep.size(), 5u);
  // Point 0 is the nominal run.
  EXPECT_EQ(scalar.amp_sweep[0].sndr_db, scalar.nominal.sndr.sndr_db);
  for (int width : {2, 8}) {
    SCOPED_TRACE(width);
    const Datasheet batched = sheet(width);
    ASSERT_EQ(batched.amp_sweep.size(), scalar.amp_sweep.size());
    for (std::size_t k = 0; k < scalar.amp_sweep.size(); ++k) {
      EXPECT_EQ(batched.amp_sweep[k].amplitude_dbfs,
                scalar.amp_sweep[k].amplitude_dbfs);
      EXPECT_EQ(batched.amp_sweep[k].sndr_db, scalar.amp_sweep[k].sndr_db);
      EXPECT_EQ(batched.amp_sweep[k].enob, scalar.amp_sweep[k].enob);
    }
  }
}

TEST(Datasheet, FullFlowProducesConsistentNumbers) {
  DatasheetOptions opts;
  opts.n_samples = 1 << 13;
  opts.mc_runs = 0;
  const Datasheet ds = generate_datasheet(AdcSpec::paper_40nm(), opts);
  EXPECT_GT(ds.nominal.sndr.sndr_db, 60.0);
  EXPECT_GT(ds.area_mm2, 1e-3);
  EXPECT_TRUE(ds.drc.clean());
  EXPECT_TRUE(ds.power_grid.clean());
  EXPECT_EQ(ds.routing.failed_nets, 0);
  EXPECT_GT(ds.timing.slack_s, 0.0);
  EXPECT_TRUE(ds.mc.sndr_db.empty());
  // Wire load reached the power model.
  EXPECT_GT(ds.nominal.power.wire_w, 0.0);
}

TEST(Datasheet, RenderContainsEverySection) {
  DatasheetOptions opts;
  opts.n_samples = 1 << 12;
  opts.mc_runs = 2;
  const Datasheet ds = generate_datasheet(AdcSpec::paper_40nm(), opts);
  const std::string text = ds.render();
  for (const char* needle :
       {"dynamic performance", "SNDR", "ENOB", "Walden FOM", "die area",
        "power grid", "critical path", "slack", "SNDR (MC"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(Datasheet, MonteCarloSectionOptional) {
  DatasheetOptions opts;
  opts.n_samples = 1 << 12;
  opts.mc_runs = 0;
  const Datasheet ds = generate_datasheet(AdcSpec::paper_40nm(), opts);
  EXPECT_EQ(ds.render().find("SNDR (MC"), std::string::npos);
}

}  // namespace
}  // namespace vcoadc::core
