#include "netlist/logic_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace vcoadc::netlist {
namespace {

Logic logic_and(Logic a, Logic b) {
  if (a == Logic::k0 || b == Logic::k0) return Logic::k0;
  if (a == Logic::k1 && b == Logic::k1) return Logic::k1;
  return Logic::kX;
}

Logic logic_or(Logic a, Logic b) {
  if (a == Logic::k1 || b == Logic::k1) return Logic::k1;
  if (a == Logic::k0 && b == Logic::k0) return Logic::k0;
  return Logic::kX;
}

Logic logic_xor(Logic a, Logic b) {
  if (a == Logic::kX || b == Logic::kX) return Logic::kX;
  return (a == b) ? Logic::k0 : Logic::k1;
}

/// Per LogicSim::Fn, in declaration order: the inputs its evaluation reads
/// and its delay relative to a 1x inverter.
struct FnModel {
  std::size_t arity;
  double delay_factor;
};
constexpr FnModel kFnModels[] = {
    {1, 1.0},  // inv
    {1, 2.0},  // buf, clkbuf
    {2, 1.4},  // nand2
    {2, 1.4},  // nor2
    {3, 1.8},  // nand3
    {3, 1.8},  // nor3
    {2, 2.2},  // xor2
    {2, 2.5},  // dlat (D and G)
    {0, 1.5},  // no logic model
};

}  // namespace

char to_char(Logic v) {
  switch (v) {
    case Logic::k0:
      return '0';
    case Logic::k1:
      return '1';
    case Logic::kX:
      return 'X';
  }
  return '?';
}

Logic logic_not(Logic v) {
  if (v == Logic::k0) return Logic::k1;
  if (v == Logic::k1) return Logic::k0;
  return Logic::kX;
}

LogicSim::LogicSim(const Design& design, const tech::TechNode& node) {
  const double inv_delay = node.fo4_delay_s / 4.0;
  for (const FlatInstance& fi : design.flatten()) {
    if (fi.cell->is_resistor) continue;  // analog-only element
    Gate g;
    g.fn = resolve_function(fi.cell->function);
    const FnModel& model = kFnModels[static_cast<std::size_t>(g.fn)];
    // Drive strength shortens the delay (bigger devices, same load model).
    g.delay = inv_delay * model.delay_factor /
              std::max(1.0, std::sqrt(static_cast<double>(fi.cell->drive)));
    for (const PinSpec& pin : fi.cell->pins) {
      auto it = fi.conn.find(pin.name);
      if (it == fi.conn.end()) continue;
      if (is_supply_net(it->second)) continue;
      const int id = net_id(it->second);
      if (pin.dir == PortDir::kOutput) {
        g.output = id;
      } else if (pin.dir == PortDir::kInput) {
        g.inputs.push_back(id);
        if (pin.name == "D") g.d_in = id;
        if (pin.name == "G") g.g_in = id;
      }
    }
    if (g.output < 0) continue;
    // A modelled function short of an input (unconnected, or tied to a
    // supply-class net) has nothing to evaluate it on: the gate drives X.
    if (g.inputs.size() < model.arity ||
        (g.fn == Fn::kDlat && (g.d_in < 0 || g.g_in < 0))) {
      g.fn = Fn::kOther;
    }
    const int gate_idx = static_cast<int>(gates_.size());
    gates_.push_back(g);
    for (int in : gates_.back().inputs) {
      fanout_[static_cast<std::size_t>(in)].push_back(gate_idx);
    }
  }
}

LogicSim::Fn LogicSim::resolve_function(const std::string& fn) {
  if (fn == "inv") return Fn::kInv;
  if (fn == "buf" || fn == "clkbuf") return Fn::kBuf;
  if (fn == "nand2") return Fn::kNand2;
  if (fn == "nor2") return Fn::kNor2;
  if (fn == "nand3") return Fn::kNand3;
  if (fn == "nor3") return Fn::kNor3;
  if (fn == "xor2") return Fn::kXor2;
  if (fn == "dlat") return Fn::kDlat;
  return Fn::kOther;
}

int LogicSim::net_id(const std::string& name) {
  auto it = net_ids_.find(name);
  if (it != net_ids_.end()) return it->second;
  const int id = static_cast<int>(net_names_.size());
  net_ids_[name] = id;
  net_names_.push_back(name);
  values_.push_back(Logic::kX);
  fanout_.emplace_back();
  watched_.push_back(0);
  return id;
}

int LogicSim::net(const std::string& name) const {
  auto it = net_ids_.find(name);
  return it == net_ids_.end() ? -1 : it->second;
}

std::vector<std::string> LogicSim::net_names() const { return net_names_; }

Logic LogicSim::eval_function(const Gate& g,
                              const std::vector<Logic>& values) {
  auto in = [&](std::size_t i) {
    return values[static_cast<std::size_t>(g.inputs[i])];
  };
  switch (g.fn) {
    case Fn::kInv:
      return logic_not(in(0));
    case Fn::kBuf:
      return in(0);
    case Fn::kNand2:
      return logic_not(logic_and(in(0), in(1)));
    case Fn::kNor2:
      return logic_not(logic_or(in(0), in(1)));
    case Fn::kNand3:
      return logic_not(logic_and(logic_and(in(0), in(1)), in(2)));
    case Fn::kNor3:
      return logic_not(logic_or(logic_or(in(0), in(1)), in(2)));
    case Fn::kXor2:
      return logic_xor(in(0), in(1));
    case Fn::kDlat: {
      // Transparent while G is high; holds otherwise (X gate -> X out
      // unless D equals the held value, conservatively X).
      const Logic gate = values[static_cast<std::size_t>(g.g_in)];
      const Logic d = values[static_cast<std::size_t>(g.d_in)];
      if (gate == Logic::k1) return d;
      if (gate == Logic::k0) return values[static_cast<std::size_t>(g.output)];
      return Logic::kX;
    }
    case Fn::kOther:
      break;
  }
  return Logic::kX;
}

void LogicSim::evaluate_and_schedule(int gate_idx) {
  Gate& g = gates_[static_cast<std::size_t>(gate_idx)];
  const Logic next = eval_function(g, values_);
  // Inertial delay: a new evaluation supersedes any pending event.
  ++g.seq;
  if (next == values_[static_cast<std::size_t>(g.output)]) return;
  queue_.push({now_ + g.delay, gate_idx, g.seq, next});
}

void LogicSim::commit(int net, Logic value) {
  if (values_[static_cast<std::size_t>(net)] == value) return;
  values_[static_cast<std::size_t>(net)] = value;
  ++transitions_;
  if (watched_[static_cast<std::size_t>(net)] != 0) {
    for (auto& fn : callbacks_[net]) fn(now_, value);
  }
  for (int gi : fanout_[static_cast<std::size_t>(net)]) {
    evaluate_and_schedule(gi);
  }
}

void LogicSim::set(int id, Logic value) { commit(id, value); }

void LogicSim::set(const std::string& net, Logic value) {
  const int id = net_id(net);
  commit(id, value);
}

Logic LogicSim::get(const std::string& net) const {
  const int id = this->net(net);
  return id < 0 ? Logic::kX : get(id);
}

void LogicSim::run_until(double t_end) {
  while (!queue_.empty() && queue_.top().time <= t_end) {
    const Event ev = queue_.top();
    queue_.pop();
    const Gate& g = gates_[static_cast<std::size_t>(ev.gate)];
    if (ev.seq != g.seq) continue;  // superseded (inertial)
    now_ = ev.time;
    commit(g.output, ev.value);
  }
  now_ = std::max(now_, t_end);
}

bool LogicSim::settle(double t_limit) {
  while (!queue_.empty()) {
    if (queue_.top().time > t_limit) {
      now_ = t_limit;
      return false;
    }
    const Event ev = queue_.top();
    queue_.pop();
    const Gate& g = gates_[static_cast<std::size_t>(ev.gate)];
    if (ev.seq != g.seq) continue;
    now_ = ev.time;
    commit(g.output, ev.value);
  }
  return true;
}

void LogicSim::on_change(const std::string& net,
                         std::function<void(double, Logic)> cb) {
  const int id = net_id(net);
  watched_[static_cast<std::size_t>(id)] = 1;
  callbacks_[id].push_back(std::move(cb));
}

}  // namespace vcoadc::netlist
