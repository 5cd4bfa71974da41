#include "netlist/equivalence.h"

#include <algorithm>
#include <map>
#include <string_view>

namespace vcoadc::netlist {
namespace {

constexpr std::size_t kMaxMismatches = 20;

void note(EquivalenceResult& res, std::string msg) {
  if (res.mismatches.size() < kMaxMismatches) {
    res.mismatches.push_back(std::move(msg));
  }
}

/// True when cell `ia` of `a` and cell `ib` of `b` connect the same pins to
/// the same net names. Both lists are in pin-name order, so this is a
/// walk in step, whatever ids the two netlists gave the names.
bool same_connections(const FlatNetlist& a, std::size_t ia,
                      const FlatNetlist& b, std::size_t ib) {
  const auto pa = a.pins(ia);
  const auto pb = b.pins(ib);
  return std::equal(pa.begin(), pa.end(), pb.begin(), pb.end(),
                    [&](const FlatPin& x, const FlatPin& y) {
                      return a.pin_name(x.pin) == b.pin_name(y.pin) &&
                             a.net_name(x.net) == b.net_name(y.net);
                    });
}

}  // namespace

EquivalenceResult check_equivalence(const Design& a, const Design& b,
                                    const EquivalenceOptions& opts) {
  EquivalenceResult res;

  // Top port lists must agree (order-insensitive).
  const Module* top_a = a.find_module(a.top());
  const Module* top_b = b.find_module(b.top());
  if (top_a == nullptr || top_b == nullptr) {
    note(res, "missing top module");
    return res;
  }
  auto port_set = [](const Module& m) {
    std::map<std::string, PortDir> ports;
    for (const Port& p : m.ports()) ports[p.name] = p.dir;
    return ports;
  };
  if (port_set(*top_a) != port_set(*top_b)) {
    note(res, "top-level port lists differ");
  }

  // Index B's flattened cells by path.
  const FlatNetlist flat_b = b.flatten();
  std::map<std::string_view, std::size_t> by_path;
  for (std::size_t i = 0; i < flat_b.size(); ++i) by_path[flat_b[i].path] = i;

  const FlatNetlist flat_a = a.flatten();
  res.instances_compared = static_cast<int>(flat_a.size());
  if (flat_a.size() != by_path.size()) {
    note(res, "instance counts differ: " + std::to_string(flat_a.size()) +
                  " vs " + std::to_string(by_path.size()));
  }

  for (std::size_t ia = 0; ia < flat_a.size(); ++ia) {
    const FlatInstance& fa = flat_a[ia];
    auto it = by_path.find(fa.path);
    if (it == by_path.end()) {
      note(res, fa.path + ": missing in second design");
      continue;
    }
    const FlatInstance& fb = flat_b[it->second];
    if (fa.cell->function != fb.cell->function) {
      note(res, fa.path + ": function " + fa.cell->function + " vs " +
                    fb.cell->function);
    } else if (opts.match_drive && fa.cell->drive != fb.cell->drive) {
      note(res, fa.path + ": drive X" + std::to_string(fa.cell->drive) +
                    " vs X" + std::to_string(fb.cell->drive));
    }
    if (!same_connections(flat_a, ia, flat_b, it->second)) {
      note(res, fa.path + ": connectivity differs");
    }
    if (fa.power_domain != fb.power_domain || fa.group != fb.group) {
      note(res, fa.path + ": power domain / group annotation differs");
    }
    by_path.erase(it);
  }
  for (const auto& [path, index] : by_path) {
    note(res, std::string(path) + ": extra in second design");
  }

  res.equivalent = res.mismatches.empty();
  return res;
}

}  // namespace vcoadc::netlist
