// Event-driven gate-level logic simulator.
//
// Executes a flattened Design directly - the digital half of verifying the
// generated HDL (Sec. 3.2) before layout: the Table 1 comparator must
// regenerate and latch, the SAFF must retime, the XOR must detect phase,
// and the Fig. 5 ring of inverters must actually oscillate at the period
// its stage delays predict. Three-valued logic (0/1/X) with inertial gate
// delays derived from the technology node.
//
// Supply-class pins (VDD/VSS/VCTRL*/VREFP/VBUF) are ignored by evaluation:
// in this discrete abstraction every gate is powered; the analog effects of
// the control-node supplies live in msim, not here.
//
// Every name is resolved once: the constructor turns each cell's function
// into a tag and each pin into a dense net id, so a gate evaluation is a
// switch over the tag, and a stimulus loop that resolves its nets up front
// with net() drives and probes them with set(id)/get(id). The name
// overloads wrap those for tests and the VCD path.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "tech/tech_node.h"

namespace vcoadc::netlist {

enum class Logic : std::uint8_t { k0 = 0, k1 = 1, kX = 2 };

char to_char(Logic v);
Logic logic_not(Logic v);

class LogicSim {
 public:
  /// Builds the simulator over `design`'s flattened top. Gate delays come
  /// from `node` (FO4/4 for a 1x inverter, scaled by function complexity,
  /// reduced with drive strength).
  LogicSim(const Design& design, const tech::TechNode& node);

  /// Id of a net for set(int)/get(int), or -1 when the flattened top has
  /// no net of that name. Ids are dense and stable for the simulator's
  /// lifetime.
  int net(const std::string& name) const;

  /// Forces net `id` (from net()) to a value at the current time (top-level
  /// stimulus). Scheduling is immediate; fan-out evaluates as time advances.
  void set(int id, Logic value);

  /// Current value of net `id` (from net()).
  Logic get(int id) const { return values_[static_cast<std::size_t>(id)]; }

  /// set(int) by name. A name the design lacks becomes a new floating net,
  /// driven by nothing but this stimulus.
  void set(const std::string& net, Logic value);

  /// get(int) by name; X for a name the design lacks.
  Logic get(const std::string& net) const;

  /// Advances simulation until `t_end` seconds of simulated time.
  void run_until(double t_end);

  /// Advances until no events remain or `t_limit` is reached; returns true
  /// if the network settled (went quiescent).
  bool settle(double t_limit);

  double now() const { return now_; }

  /// Registers a callback fired on every committed change of `net`.
  void on_change(const std::string& net,
                 std::function<void(double, Logic)> cb);

  /// Count of committed net transitions since construction (activity).
  std::uint64_t transition_count() const { return transitions_; }

  /// True if the net exists.
  bool has_net(const std::string& net) const { return this->net(net) >= 0; }

  /// Names of all nets (flattened).
  std::vector<std::string> net_names() const;

 private:
  /// A cell's logic function, resolved from StdCell::function once. The
  /// order indexes the per-function table in logic_sim.cpp.
  enum class Fn : std::uint8_t {
    kInv,
    kBuf,  ///< buf and clkbuf
    kNand2,
    kNor2,
    kNand3,
    kNor3,
    kXor2,
    kDlat,
    kOther,  ///< no logic model: always X
  };
  struct Gate {
    Fn fn = Fn::kOther;
    std::vector<int> inputs;   // net ids in pin order
    int output = -1;           // net id (-1 if none, e.g. resistors)
    int d_in = -1, g_in = -1;  // for dlat
    double delay = 0;
    std::uint64_t seq = 0;     // inertial-delay event version
  };
  struct Event {
    double time;
    int gate;
    std::uint64_t seq;
    Logic value;
    bool operator>(const Event& other) const { return time > other.time; }
  };

  static Fn resolve_function(const std::string& fn);
  int net_id(const std::string& name);
  void evaluate_and_schedule(int gate_idx);
  void commit(int net, Logic value);
  static Logic eval_function(const Gate& g,
                             const std::vector<Logic>& values);

  std::map<std::string, int> net_ids_;
  std::vector<std::string> net_names_;
  std::vector<Logic> values_;
  std::vector<std::vector<int>> fanout_;  // net id -> gate indices
  std::vector<Gate> gates_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  /// Per net: 1 when on_change() registered a callback, so a commit only
  /// looks up callbacks_ for watched nets.
  std::vector<std::uint8_t> watched_;
  std::map<int, std::vector<std::function<void(double, Logic)>>> callbacks_;
  double now_ = 0;
  std::uint64_t transitions_ = 0;
};

}  // namespace vcoadc::netlist
