#include "netlist/netlist.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/strings.h"

namespace vcoadc::netlist {

void Module::add_port(const std::string& name, PortDir dir) {
  ports_.push_back({name, dir});
}

void Module::add_net(const std::string& name) {
  if (!has_net(name) && !has_port(name)) nets_.push_back(name);
}

Instance& Module::add_instance(Instance inst) {
  instances_.push_back(std::move(inst));
  return instances_.back();
}

bool Module::has_port(const std::string& name) const {
  return std::any_of(ports_.begin(), ports_.end(),
                     [&](const Port& p) { return p.name == name; });
}

bool Module::has_net(const std::string& name) const {
  return std::find(nets_.begin(), nets_.end(), name) != nets_.end();
}

bool is_supply_net(const std::string& net) {
  const std::size_t slash = net.rfind('/');
  const std::string leaf =
      (slash == std::string::npos) ? net : net.substr(slash + 1);
  return leaf == "VDD" || leaf == "VSS" || leaf == "VREFP" ||
         leaf == "VREFN" || leaf == "VBUF" ||
         util::starts_with(leaf, "VCTRL");
}

Module& Design::add_module(const std::string& name) {
  if (Module* existing = find_module(name)) {
    // Degraded fallback instead of an abort: the caller gets the existing
    // module (the usual intent of a redundant add), and validate() /
    // core::validate_netlist reject genuinely conflicting designs.
    std::fprintf(stderr,
                 "vcoadc: [warning] netlist: duplicate module '%s'; "
                 "reusing the existing one\n",
                 name.c_str());
    return *existing;
  }
  modules_.emplace_back(name);
  return modules_.back();
}

Module* Design::find_module(const std::string& name) {
  for (Module& m : modules_) {
    if (m.name() == name) return &m;
  }
  return nullptr;
}

const Module* Design::find_module(const std::string& name) const {
  for (const Module& m : modules_) {
    if (m.name() == name) return &m;
  }
  return nullptr;
}

Module& Design::at(const std::string& name) {
  Module* m = find_module(name);
  if (m == nullptr) {
    // Degraded fallback instead of an abort: hand back an empty sentinel
    // module so rendering/stats code stays alive; callers that must hard-
    // fail use find_module() or core::validate_netlist upstream.
    std::fprintf(stderr,
                 "vcoadc: [warning] netlist: unknown module '%s'; "
                 "substituting an empty module\n",
                 name.c_str());
    static Module fallback("<unknown>");
    fallback = Module("<unknown>");
    return fallback;
  }
  return *m;
}

const Module& Design::at(const std::string& name) const {
  const Module* m = find_module(name);
  if (m == nullptr) {
    std::fprintf(stderr,
                 "vcoadc: [warning] netlist: unknown module '%s'; "
                 "substituting an empty module\n",
                 name.c_str());
    static const Module fallback("<unknown>");
    return fallback;
  }
  return *m;
}

std::vector<std::string> Design::validate() const {
  std::vector<std::string> problems;
  auto problem = [&](std::string msg) { problems.push_back(std::move(msg)); };

  if (find_module(top_) == nullptr) {
    problem("top module '" + top_ + "' not found");
  }

  for (const Module& mod : modules_) {
    auto net_known = [&](const std::string& net) {
      return mod.has_net(net) || mod.has_port(net);
    };
    for (const Instance& inst : mod.instances()) {
      const StdCell* cell = lib_->find(inst.master);
      const Module* sub = find_module(inst.master);
      if (cell == nullptr && sub == nullptr) {
        problem(mod.name() + "/" + inst.name + ": unknown master '" +
                inst.master + "'");
        continue;
      }
      for (const auto& [pin, net] : inst.conn) {
        const bool pin_ok =
            (cell != nullptr) ? cell->has_pin(pin)
                              : (sub != nullptr && sub->has_port(pin));
        if (!pin_ok) {
          problem(mod.name() + "/" + inst.name + ": master '" + inst.master +
                  "' has no pin '" + pin + "'");
        }
        if (!net_known(net)) {
          problem(mod.name() + "/" + inst.name + ": net '" + net +
                  "' not declared in module '" + mod.name() + "'");
        }
      }
      // Every input pin must be driven by *something* (connected).
      if (cell != nullptr) {
        for (const PinSpec& pin : cell->pins) {
          if (pin.dir == PortDir::kInput && inst.conn.count(pin.name) == 0) {
            problem(mod.name() + "/" + inst.name + ": input pin '" +
                    pin.name + "' unconnected");
          }
        }
      } else if (sub != nullptr) {
        for (const Port& port : sub->ports()) {
          if (port.dir == PortDir::kInput &&
              inst.conn.count(port.name) == 0) {
            problem(mod.name() + "/" + inst.name + ": input port '" +
                    port.name + "' unconnected");
          }
        }
      }
    }
  }
  return problems;
}

void Design::flatten_into(
    const Module& mod, const std::string& path_prefix,
    const std::map<std::string_view, std::uint32_t>& port_nets,
    const std::string& inherited_pd, const std::string& inherited_group,
    FlatNetlistBuilder& out) const {
  auto resolve_net = [&](const std::string& local) -> std::uint32_t {
    auto it = port_nets.find(local);
    if (it != port_nets.end()) return it->second;
    return path_prefix.empty() ? out.net(local)
                               : out.net(path_prefix + "/" + local);
  };

  for (const Instance& inst : mod.instances()) {
    const std::string& pd =
        inst.power_domain.empty() ? inherited_pd : inst.power_domain;
    const std::string& grp =
        inst.group.empty() ? inherited_group : inst.group;
    std::string child_path =
        path_prefix.empty() ? inst.name : path_prefix + "/" + inst.name;

    if (const StdCell* cell = lib_->find(inst.master)) {
      out.add_cell({std::move(child_path), cell, pd, grp});
      for (const auto& [pin, net] : inst.conn) {
        out.connect(pin, resolve_net(net));
      }
    } else if (const Module* sub = find_module(inst.master)) {
      std::map<std::string_view, std::uint32_t> child_ports;
      for (const auto& [pin, net] : inst.conn) {
        child_ports.emplace(pin, resolve_net(net));
      }
      flatten_into(*sub, child_path, child_ports, pd, grp, out);
    }
    // Unknown masters were reported by validate(); skip here.
  }
}

FlatNetlist Design::flatten() const {
  const Module* top_mod = find_module(top_);
  if (top_mod == nullptr) return {};
  // Reserve the exact leaf and connection counts up front, so the
  // netlist's arrays are allocated once at their final size.
  struct Counts {
    std::size_t cells = 0;
    std::size_t pins = 0;
  };
  auto count_leaves = [&](auto&& self, const Module& mod) -> Counts {
    Counts n;
    for (const Instance& inst : mod.instances()) {
      if (lib_->find(inst.master) != nullptr) {
        ++n.cells;
        n.pins += inst.conn.size();
      } else if (const Module* sub = find_module(inst.master)) {
        const Counts c = self(self, *sub);
        n.cells += c.cells;
        n.pins += c.pins;
      }
    }
    return n;
  };
  const Counts counts = count_leaves(count_leaves, *top_mod);
  FlatNetlistBuilder out;
  out.reserve(counts.cells, counts.pins);
  // Top ports map to themselves (flat net name == port name).
  std::map<std::string_view, std::uint32_t> ports;
  for (const Port& p : top_mod->ports()) ports.emplace(p.name, out.net(p.name));
  flatten_into(*top_mod, "", ports, "PD_VDD", "", out);
  return std::move(out).build();
}

DesignStats Design::stats() const {
  DesignStats s;
  for (const FlatInstance& fi : flatten()) {
    ++s.total_instances;
    if (fi.cell->is_resistor) {
      ++s.resistors;
    } else {
      ++s.digital_gates;
    }
    ++s.by_function[fi.cell->function];
    ++s.by_power_domain[fi.cell->is_resistor ? fi.group : fi.power_domain];
    s.total_cell_area_m2 += fi.cell->area_m2();
    s.total_leakage_w += fi.cell->leakage_w;
  }
  return s;
}

}  // namespace vcoadc::netlist
