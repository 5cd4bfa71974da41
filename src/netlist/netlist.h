// Hierarchical gate-level netlist data model.
//
// This is the object the whole Sec. 3 flow revolves around: the HDL
// generation phase produces it, the Verilog writer/parser serialize it, and
// the floorplanner/placer consume its flattened form.
//
// Power-domain metadata: every instance carries `power_domain` (the P/G net
// pair its supply pins connect to, e.g. "PD_VCTRLP") and `group` (for supply-
// less components such as resistors, e.g. "GRP_DAC_RES"). These drive the
// MSV-style region constraints of Sec. 3.3 / Fig. 12.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "netlist/cell_library.h"

namespace vcoadc::netlist {

struct Port {
  std::string name;
  PortDir dir = PortDir::kInout;
};

struct Instance {
  std::string name;
  std::string master;  ///< a library cell or a module in the same Design
  std::map<std::string, std::string> conn;  ///< pin -> net
  std::string power_domain;  ///< e.g. "PD_VDD"; empty = inherit from parent
  std::string group;         ///< e.g. "GRP_DAC_RES"; empty = none
};

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}

  void add_port(const std::string& name, PortDir dir);
  void add_net(const std::string& name);
  /// add_net without its scan of the nets and ports, for a caller that
  /// already knows `name` is neither (the Verilog parser and the design
  /// codec index the names they add).
  void append_net(std::string name) { nets_.push_back(std::move(name)); }
  Instance& add_instance(Instance inst);

  bool has_port(const std::string& name) const;
  bool has_net(const std::string& name) const;

  const std::string& name() const { return name_; }
  const std::vector<Port>& ports() const { return ports_; }
  const std::vector<std::string>& nets() const { return nets_; }
  const std::vector<Instance>& instances() const { return instances_; }
  std::vector<Instance>& instances() { return instances_; }

 private:
  std::string name_;
  std::vector<Port> ports_;
  std::vector<std::string> nets_;  ///< internal wires (ports are also nets)
  std::vector<Instance> instances_;
};

/// A leaf cell instance after flattening, with hierarchical names.
struct FlatInstance {
  std::string path;          ///< e.g. "slice3/I7"
  const StdCell* cell = nullptr;
  std::map<std::string, std::string> conn;  ///< pin -> flat net name
  std::string power_domain;
  std::string group;
};

/// True if `net` is distributed as a supply (rail/mesh) rather than routed
/// or simulated as a signal: VDD/VSS/VREFP/VREFN/VBUF/VCTRL* leaf names,
/// also when hierarchical ("slice3/VCTRLP").
bool is_supply_net(const std::string& net);

struct DesignStats {
  int total_instances = 0;
  int digital_gates = 0;
  int resistors = 0;
  std::map<std::string, int> by_function;
  std::map<std::string, int> by_power_domain;
  double total_cell_area_m2 = 0;
  double total_leakage_w = 0;
};

/// A design: a set of modules over one cell library, with a designated top.
class Design {
 public:
  explicit Design(const CellLibrary* lib) : lib_(lib) {}

  Module& add_module(const std::string& name);
  Module* find_module(const std::string& name);
  const Module* find_module(const std::string& name) const;
  Module& at(const std::string& name);
  const Module& at(const std::string& name) const;

  void set_top(const std::string& name) { top_ = name; }
  const std::string& top() const { return top_; }

  /// Structural checks: every instance master resolves (cell or module),
  /// every connected pin exists on the master, every net referenced exists
  /// in the module, every input pin of every instance is connected.
  /// Returns a list of human-readable problems (empty = valid).
  std::vector<std::string> validate() const;

  /// Flattens the top module to leaf cells. Hierarchical local nets become
  /// "inst/net"; nets tied to parent ports take the parent net name.
  /// Instances inherit power_domain/group from their enclosing instance if
  /// they don't set their own.
  std::vector<FlatInstance> flatten() const;

  DesignStats stats() const;

  const CellLibrary& library() const { return *lib_; }
  const std::vector<Module>& modules() const { return modules_; }

 private:
  void flatten_into(const Module& mod, const std::string& path_prefix,
                    const std::map<std::string, std::string>& port_to_net,
                    const std::string& inherited_pd,
                    const std::string& inherited_group,
                    std::vector<FlatInstance>& out) const;

  const CellLibrary* lib_;
  std::vector<Module> modules_;
  std::string top_;
};

}  // namespace vcoadc::netlist
