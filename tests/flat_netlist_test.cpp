// The flat netlist against the string-map form it replaced: Design::flatten
// and NetDb must give the same cells, the same connections in the same
// order and the same net ids, members and counts as the pre-table code,
// kept below verbatim as the reference. Also: the builder's and the
// decoder's invariants, one netlist shared by the cached floorplan and
// route artifacts, no heap block per pin, and check_equivalence still
// seeing a swapped pin and a renamed net.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/adc_spec.h"
#include "core/artifact_cache.h"
#include "core/flow.h"
#include "netlist/equivalence.h"
#include "netlist/generator.h"
#include "netlist/netlist.h"
#include "synth/net_db.h"
#include "tech/tech_node.h"

namespace vcoadc::netlist {
namespace {

// --- the string-map reference ------------------------------------------------

/// A flat instance as it was before the flat netlist: a map of pin names
/// to net names per instance.
struct MapFlatInstance {
  std::string path;
  const StdCell* cell = nullptr;
  std::map<std::string, std::string> conn;  ///< pin -> flat net name
  std::string power_domain;
  std::string group;
};

void map_flatten_into(const Design& d, const Module& mod,
                      const std::string& path_prefix,
                      const std::map<std::string, std::string>& port_to_net,
                      const std::string& inherited_pd,
                      const std::string& inherited_group,
                      std::vector<MapFlatInstance>& out) {
  auto resolve_net = [&](const std::string& local) -> std::string {
    auto it = port_to_net.find(local);
    if (it != port_to_net.end()) return it->second;
    return path_prefix.empty() ? local : path_prefix + "/" + local;
  };

  for (const Instance& inst : mod.instances()) {
    const std::string pd =
        inst.power_domain.empty() ? inherited_pd : inst.power_domain;
    const std::string grp = inst.group.empty() ? inherited_group : inst.group;
    const std::string child_path =
        path_prefix.empty() ? inst.name : path_prefix + "/" + inst.name;

    if (const StdCell* cell = d.library().find(inst.master)) {
      MapFlatInstance fi;
      fi.path = child_path;
      fi.cell = cell;
      fi.power_domain = pd;
      fi.group = grp;
      for (const auto& [pin, net] : inst.conn) {
        fi.conn[pin] = resolve_net(net);
      }
      out.push_back(std::move(fi));
    } else if (const Module* sub = d.find_module(inst.master)) {
      std::map<std::string, std::string> child_ports;
      for (const auto& [pin, net] : inst.conn) {
        child_ports[pin] = resolve_net(net);
      }
      map_flatten_into(d, *sub, child_path, child_ports, pd, grp, out);
    }
  }
}

std::vector<MapFlatInstance> map_flatten(const Design& d) {
  std::vector<MapFlatInstance> out;
  const Module* top_mod = d.find_module(d.top());
  if (top_mod == nullptr) return out;
  std::map<std::string, std::string> ports;
  for (const Port& p : top_mod->ports()) ports[p.name] = p.name;
  map_flatten_into(d, *top_mod, "", ports, "PD_VDD", "", out);
  return out;
}

/// NetDb's construction before the flat netlist: every pin's net name
/// hashed, the signal names sorted, the CSR views filled from the maps.
struct MapNetDb {
  struct CellPin {
    int net = -1;
    const std::string* pin = nullptr;
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, int> id_;
  std::vector<int> conn_count_;
  std::vector<std::size_t> member_off_;
  std::vector<int> members_;
  std::vector<std::size_t> cell_net_off_;
  std::vector<int> cell_nets_;
  std::vector<std::size_t> cell_pin_off_;
  std::vector<CellPin> cell_pins_;

  explicit MapNetDb(const std::vector<MapFlatInstance>& flat) {
    for (const auto& fi : flat) {
      for (const auto& [pin, net] : fi.conn) {
        (void)pin;
        if (is_supply_net(net)) continue;
        if (id_.emplace(net, 0).second) names_.push_back(net);
      }
    }
    std::sort(names_.begin(), names_.end());
    for (std::size_t i = 0; i < names_.size(); ++i) {
      id_[names_[i]] = static_cast<int>(i);
    }
    const std::size_t n_nets = names_.size();
    const std::size_t n_cells = flat.size();

    conn_count_.assign(n_nets, 0);
    std::vector<std::size_t> member_cnt(n_nets, 0);
    cell_pin_off_.assign(n_cells + 1, 0);
    cell_net_off_.assign(n_cells + 1, 0);
    for (std::size_t c = 0; c < n_cells; ++c) {
      for (const auto& [pin, net] : flat[c].conn) {
        (void)pin;
        const auto it = id_.find(net);
        if (it == id_.end()) continue;
        ++conn_count_[static_cast<std::size_t>(it->second)];
        ++cell_pin_off_[c + 1];
      }
    }
    for (std::size_t c = 0; c < n_cells; ++c) {
      cell_pin_off_[c + 1] += cell_pin_off_[c];
    }
    cell_pins_.resize(cell_pin_off_[n_cells]);
    std::vector<int> scratch;
    for (std::size_t c = 0; c < n_cells; ++c) {
      std::size_t w = cell_pin_off_[c];
      scratch.clear();
      for (const auto& [pin, net] : flat[c].conn) {
        const auto it = id_.find(net);
        if (it == id_.end()) continue;
        cell_pins_[w++] = CellPin{it->second, &pin};
        scratch.push_back(it->second);
      }
      std::sort(scratch.begin(), scratch.end());
      scratch.erase(std::unique(scratch.begin(), scratch.end()),
                    scratch.end());
      cell_net_off_[c + 1] = cell_net_off_[c] + scratch.size();
      for (int net : scratch) {
        cell_nets_.push_back(net);
        ++member_cnt[static_cast<std::size_t>(net)];
      }
    }
    member_off_.assign(n_nets + 1, 0);
    for (std::size_t n = 0; n < n_nets; ++n) {
      member_off_[n + 1] = member_off_[n] + member_cnt[n];
    }
    members_.resize(member_off_[n_nets]);
    std::vector<std::size_t> write_pos(member_off_.begin(),
                                       member_off_.end() - 1);
    for (std::size_t c = 0; c < n_cells; ++c) {
      for (std::size_t k = cell_net_off_[c]; k < cell_net_off_[c + 1]; ++k) {
        const int net = cell_nets_[k];
        members_[write_pos[static_cast<std::size_t>(net)]++] =
            static_cast<int>(c);
      }
    }
  }
};

// --- designs -----------------------------------------------------------------

struct NamedDesign {
  std::string name;
  std::shared_ptr<const CellLibrary> lib;
  std::shared_ptr<const Design> design;
};

/// The paper 40 and 180 nm netlists, and one netlist per slice count the
/// design_sweep workload draws (6, 8, ..., 26), each with its own node and
/// DAC fragment count as one of that workload's Latin-square blocks pairs
/// them.
std::vector<NamedDesign> reference_designs() {
  std::vector<NamedDesign> out;
  core::ExecContext ctx;
  core::Flow flow(ctx);
  for (const core::AdcSpec& spec :
       {core::AdcSpec::paper_40nm(), core::AdcSpec::paper_180nm()}) {
    const core::DesignBundle b = flow.netlist(spec);
    out.push_back({"paper " + std::to_string(spec.node_nm), b.lib, b.design});
  }
  const double nodes[] = {22, 32, 40, 45, 65, 90, 130, 180, 250, 350, 500};
  for (int s = 0; s < 11; ++s) {
    const tech::TechNode node = tech::TechDatabase::standard().at(nodes[s]);
    auto lib = std::make_shared<CellLibrary>(make_standard_library(node));
    add_resistor_cells(*lib, node);
    GeneratorConfig gen;
    gen.num_slices = 6 + 2 * s;
    gen.dac_fragments = 1 + s;
    auto design =
        std::make_shared<const Design>(build_adc_design(*lib, gen));
    out.push_back({std::to_string(gen.num_slices) + " slices at " +
                       std::to_string(nodes[s]) + " nm",
                   lib, design});
  }
  return out;
}

const std::vector<NamedDesign>& designs() {
  static const std::vector<NamedDesign> d = reference_designs();
  return d;
}

TEST(FlatNetlist, FlattenMatchesTheStringMapReference) {
  for (const NamedDesign& nd : designs()) {
    SCOPED_TRACE(nd.name);
    const FlatNetlist flat = nd.design->flatten();
    const std::vector<MapFlatInstance> ref = map_flatten(*nd.design);
    ASSERT_EQ(flat.size(), ref.size());
    std::map<std::string, int> ref_nets;
    std::map<std::string, int> ref_pins;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      SCOPED_TRACE(ref[i].path);
      EXPECT_EQ(flat[i].path, ref[i].path);
      EXPECT_EQ(flat[i].cell, ref[i].cell);
      EXPECT_EQ(flat[i].power_domain, ref[i].power_domain);
      EXPECT_EQ(flat[i].group, ref[i].group);
      // The same pins, in the map's (pin-name) order, on the same nets.
      const auto pins = flat.pins(i);
      ASSERT_EQ(pins.size(), ref[i].conn.size());
      std::size_t k = 0;
      for (const auto& [pin, net] : ref[i].conn) {
        EXPECT_EQ(flat.pin_name(pins[k].pin), pin);
        EXPECT_EQ(flat.net_name(pins[k].net), net);
        EXPECT_EQ(flat.net_on(i, pin), static_cast<int>(pins[k].net));
        ++ref_nets[net];
        ++ref_pins[pin];
        ++k;
      }
    }
    // The tables are exactly the connected names, in sorted order.
    std::vector<std::string> nets, pin_names;
    for (const auto& [name, uses] : ref_nets) nets.push_back(name);
    for (const auto& [name, uses] : ref_pins) pin_names.push_back(name);
    EXPECT_EQ(flat.nets(), nets);
    EXPECT_EQ(flat.pin_names(), pin_names);
    for (std::size_t t = 0; t < nets.size(); ++t) {
      EXPECT_EQ(flat.find_net(nets[t]), static_cast<int>(t));
    }
    EXPECT_EQ(flat.find_net("no/such/net"), -1);
  }
}

TEST(FlatNetlist, NetDbMatchesTheStringMapReference) {
  for (const NamedDesign& nd : designs()) {
    SCOPED_TRACE(nd.name);
    const FlatNetlist flat = nd.design->flatten();
    const std::vector<MapFlatInstance> ref_flat = map_flatten(*nd.design);
    const synth::NetDb db(flat);
    const MapNetDb ref(ref_flat);

    ASSERT_EQ(db.num_nets(), static_cast<int>(ref.names_.size()));
    ASSERT_EQ(db.num_cells(), static_cast<int>(ref_flat.size()));
    for (int id = 0; id < db.num_nets(); ++id) {
      const auto n = static_cast<std::size_t>(id);
      ASSERT_EQ(db.name(id), ref.names_[n]);
      EXPECT_EQ(db.id_of(ref.names_[n]), id);
      EXPECT_EQ(db.connection_count(id), ref.conn_count_[n]);
      const auto members = db.members(id);
      ASSERT_EQ(members.size(), ref.member_off_[n + 1] - ref.member_off_[n]);
      for (std::size_t k = 0; k < members.size(); ++k) {
        EXPECT_EQ(members[k], ref.members_[ref.member_off_[n] + k]);
      }
    }
    EXPECT_EQ(db.id_of("VDD"), -1);
    EXPECT_EQ(db.id_of("no/such/net"), -1);
    for (int c = 0; c < db.num_cells(); ++c) {
      const auto cell = static_cast<std::size_t>(c);
      const auto nets = db.nets_of(c);
      ASSERT_EQ(nets.size(),
                ref.cell_net_off_[cell + 1] - ref.cell_net_off_[cell]);
      for (std::size_t k = 0; k < nets.size(); ++k) {
        EXPECT_EQ(nets[k], ref.cell_nets_[ref.cell_net_off_[cell] + k]);
      }
      const auto pins = db.cell_pins(c);
      ASSERT_EQ(pins.size(),
                ref.cell_pin_off_[cell + 1] - ref.cell_pin_off_[cell]);
      for (std::size_t k = 0; k < pins.size(); ++k) {
        const MapNetDb::CellPin& want =
            ref.cell_pins_[ref.cell_pin_off_[cell] + k];
        EXPECT_EQ(pins[k].net, want.net);
        EXPECT_EQ(*pins[k].pin, *want.pin);
      }
    }
  }
}

// --- the builder and the decoder's checks ------------------------------------

TEST(FlatNetlist, BuilderSortsTablesDropsUnusedNetsKeepsFirstOfARepeatedPin) {
  StdCell inv;
  inv.name = "INVX1";
  FlatNetlistBuilder b;
  b.net("zz_never_connected");
  b.add_cell({"u1", &inv, "PD_VDD", ""});
  b.connect("Y", b.net("n2"));
  b.connect("A", b.net("n1"));
  b.connect("VSS", b.net("VSS"));
  b.add_cell({"u0", &inv, "PD_VDD", "G"});
  b.connect("A", b.net("n2"));
  b.connect("A", b.net("n3"));  // repeated pin: the first net stays
  b.connect("Y", b.net("n1"));
  b.add_cell({"r", nullptr, "", ""});  // a cell with no connections
  const FlatNetlist flat = std::move(b).build();

  ASSERT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat[0].path, "u1");
  EXPECT_EQ(flat[1].group, "G");
  EXPECT_EQ(flat.nets(), (std::vector<std::string>{"VSS", "n1", "n2"}));
  EXPECT_EQ(flat.pin_names(), (std::vector<std::string>{"A", "VSS", "Y"}));
  EXPECT_EQ(flat.pin_offsets(), (std::vector<std::uint32_t>{0, 3, 5, 5}));
  EXPECT_EQ(flat.connections(),
            (std::vector<FlatPin>{{0, 1}, {1, 0}, {2, 2}, {0, 2}, {2, 1}}));
  EXPECT_EQ(flat.net_on(1, "A"), 2);
  EXPECT_EQ(flat.net_on(1, "VSS"), -1);
  EXPECT_EQ(flat.net_on(2, "A"), -1);
  EXPECT_EQ(flat.find_pin("Y"), 2);
  EXPECT_EQ(flat.find_net("n3"), -1);
  EXPECT_EQ(flat.find_net("zz_never_connected"), -1);
}

TEST(FlatNetlist, FromPartsRejectsEveryBrokenInvariant) {
  const FlatNetlist flat = designs().front().design->flatten();
  struct Parts {
    std::vector<FlatInstance> cells;
    std::vector<std::string> nets;
    std::vector<std::string> pins;
    std::vector<std::uint32_t> offsets;
    std::vector<FlatPin> conn;
  };
  const Parts good{{flat.begin(), flat.end()}, flat.nets(), flat.pin_names(),
                   flat.pin_offsets(), flat.connections()};
  auto assemble = [](Parts p) {
    return FlatNetlist::from_parts(std::move(p.cells), std::move(p.nets),
                                   std::move(p.pins), std::move(p.offsets),
                                   std::move(p.conn));
  };
  // Cell 0 has two pins or more and cell 1 at least one, so the swaps
  // below break an ordering.
  ASSERT_GE(good.offsets[1], 2u);
  ASSERT_LT(good.offsets[1], good.offsets[2]);
  const auto back = assemble(good);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->nets(), flat.nets());
  EXPECT_EQ(back->connections(), flat.connections());

  std::vector<std::pair<const char*, Parts>> broken;
  Parts p = good;
  std::swap(p.nets[0], p.nets[1]);
  broken.push_back({"net table out of order", p});
  p = good;
  p.pins.push_back(p.pins.back());
  broken.push_back({"repeated pin name", p});
  p = good;
  p.nets.push_back("~unused");
  broken.push_back({"a net no pin connects", p});
  p = good;
  p.offsets.pop_back();
  broken.push_back({"one offset short", p});
  p = good;
  p.offsets.back() -= 1;
  broken.push_back({"last offset short of the pins", p});
  p = good;
  std::swap(p.offsets[1], p.offsets[2]);
  broken.push_back({"offsets going down", p});
  p = good;
  p.conn[0].net = static_cast<std::uint32_t>(p.nets.size());
  broken.push_back({"net id past the table", p});
  p = good;
  p.conn[0].pin = static_cast<std::uint32_t>(p.pins.size());
  broken.push_back({"pin id past the table", p});
  p = good;
  std::swap(p.conn[0], p.conn[1]);
  broken.push_back({"a cell's pins out of order", p});
  for (auto& [what, parts] : broken) {
    EXPECT_FALSE(assemble(std::move(parts)).has_value()) << what;
  }
}

// --- sharing and heap --------------------------------------------------------

TEST(FlatNetlist, ColdRouteSharesTheFloorplanArtifactsNetlist) {
  core::ArtifactCache cache(64);
  core::ExecContext ctx;
  ctx.cache = &cache;
  ctx.threads = 1;
  core::Flow flow(ctx);
  const core::AdcSpec spec = core::AdcSpec::paper_40nm();
  const auto syn = flow.synthesis(spec);
  ASSERT_NE(syn, nullptr);
  ASSERT_NE(syn->layout, nullptr);
  // Both are cache hits now: the artifacts the route build used.
  const auto fp = flow.floorplan(spec);
  const auto pl = flow.placement(spec);
  ASSERT_NE(fp, nullptr);
  ASSERT_NE(pl, nullptr);
  EXPECT_EQ(&syn->layout->flat(), fp->flat.get());
  EXPECT_EQ(&syn->layout->placement(), pl.get());
  // An owned copy of the result shares them too.
  const synth::SynthesisResult copy = syn->clone();
  EXPECT_EQ(&copy.layout->flat(), fp->flat.get());
  EXPECT_EQ(&copy.layout->placement(), pl.get());
}

/// Bytes handed out by malloc: from its arenas, and mapped on their own.
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

TEST(FlatNetlist, HoldsNoHeapBlockPerPin) {
  // A sanitizer's allocator keeps books mallinfo2 does not read.
  const std::size_t h0 = heap_in_use();
  auto probe = std::make_unique<char[]>(1 << 20);
  const bool seen = heap_in_use() - h0 >= (1u << 20);
  probe.reset();
  if (!seen) GTEST_SKIP() << "mallinfo2 does not see this allocator";

  const FlatNetlist flat = designs().front().design->flatten();
  ASSERT_GT(flat.connections().size(), 2000u);
  const std::size_t before = heap_in_use();
  const FlatNetlist copy = flat;  // exactly the netlist's own blocks
  const std::size_t bytes = heap_in_use() - before;

  // Every block the netlist may own: its five arrays and each string too
  // long to live inside its std::string, at up to 32 bytes of malloc
  // overhead each. One block per pin would add at least 32 bytes a pin.
  std::size_t need = sizeof(FlatInstance) * flat.size() +
                     sizeof(std::uint32_t) * flat.pin_offsets().size() +
                     sizeof(FlatPin) * flat.connections().size() +
                     sizeof(std::string) *
                         (flat.nets().size() + flat.pin_names().size());
  std::size_t blocks = 5;
  constexpr std::size_t kInline = 15;  // libstdc++'s short-string capacity
  auto count = [&](const std::string& s) {
    if (s.size() <= kInline) return;
    need += s.size() + 1;
    ++blocks;
  };
  for (const FlatInstance& fi : flat) {
    count(fi.path);
    count(fi.power_domain);
    count(fi.group);
  }
  for (const std::string& s : flat.nets()) count(s);
  for (const std::string& s : flat.pin_names()) count(s);
  need += 32 * blocks;
  EXPECT_LE(bytes, need) << flat.connections().size() << " pins";
  EXPECT_LT(32 * blocks, 32 * flat.connections().size() / 2);
  EXPECT_EQ(copy.connections(), flat.connections());
}

// --- equivalence -------------------------------------------------------------

/// The mismatches of check_equivalence(paper 40 nm design, edited copy).
std::vector<std::string> mismatches_after(
    const std::function<void(Design&)>& edit) {
  const Design& a = *designs().front().design;
  Design b = a;
  edit(b);
  const EquivalenceResult res = check_equivalence(a, b, {});
  EXPECT_FALSE(res.equivalent);
  return res.mismatches;
}

bool ends_with(const std::string& s, const std::string& tail) {
  return s.size() >= tail.size() &&
         s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

TEST(FlatNetlist, EquivalenceReportsASwappedPin) {
  // Swap pins A and B of the comparator's I0: OUTM and INP change places.
  const auto mm = mismatches_after([](Design& d) {
    for (Instance& inst : d.at("comparator").instances()) {
      if (inst.name == "I0") std::swap(inst.conn.at("A"), inst.conn.at("B"));
    }
  });
  ASSERT_FALSE(mm.empty());
  for (const std::string& m : mm) {
    EXPECT_TRUE(ends_with(m, "/I0: connectivity differs")) << m;
  }
}

TEST(FlatNetlist, EquivalenceReportsARenamedNet) {
  // Rename the comparator's OUTP (I0's output, an input of I1 and I2).
  const auto mm = mismatches_after([](Design& d) {
    Module& m = d.at("comparator");
    m.add_net("OUTP_renamed");
    for (Instance& inst : m.instances()) {
      for (auto& [pin, net] : inst.conn) {
        if (net == "OUTP") net = "OUTP_renamed";
      }
    }
  });
  ASSERT_FALSE(mm.empty());
  bool saw[3] = {false, false, false};
  for (const std::string& m : mm) {
    bool known = false;
    for (int k = 0; k < 3; ++k) {
      if (ends_with(m, "/I" + std::to_string(k) + ": connectivity differs")) {
        saw[k] = known = true;
      }
    }
    EXPECT_TRUE(known) << m;
  }
  EXPECT_TRUE(saw[0] && saw[1] && saw[2]);
}

}  // namespace
}  // namespace vcoadc::netlist
