// Integer-interned net database shared by every layout-synthesis stage.
//
// The placer, routers, STA and the routing estimator all need the same view
// of the flattened netlist: which cells each signal net touches and which
// signal nets each cell touches. Before NetDb each stage rebuilt that view
// with its own `std::map<std::string, ...>` and paid a string compare per
// hot-loop lookup; NetDb interns every signal net name into a dense integer
// id once and exposes CSR (offset + flat array) views, so the hot loops are
// pure integer indexing.
//
// Id contract: ids are assigned in *lexicographic net-name order*. Every
// pre-NetDb stage iterated a name-keyed `std::map`, so iterating nets in
// ascending id order reproduces the exact historical visit order — which is
// what keeps NetDb-based results bit-identical to the string-map era
// (summation order, tie-breaks, RNG consumption all depend on it). The
// flat netlist's net table is already in that order, so a signal net's id
// is its rank among the table's signal nets: one pass over the table, no
// name hashed.
//
// NetDb borrows `flat`: the netlist must outlive the database (names and
// pin-name pointers alias its tables).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.h"

namespace vcoadc::synth {

class NetDb {
 public:
  /// Lightweight view over a CSR slice.
  template <typename T>
  struct Span {
    const T* first = nullptr;
    const T* last = nullptr;
    const T* begin() const { return first; }
    const T* end() const { return last; }
    std::size_t size() const { return static_cast<std::size_t>(last - first); }
    bool empty() const { return first == last; }
    const T& operator[](std::size_t i) const { return first[i]; }
  };

  /// One signal-pin connection of a cell, in the cell's pin-name-sorted
  /// connection order. `pin` aliases the netlist's pin-name table.
  struct CellPin {
    int net = -1;
    const std::string* pin = nullptr;
  };

  NetDb() = default;
  explicit NetDb(const netlist::FlatNetlist& flat);

  int num_nets() const { return static_cast<int>(table_id_.size()); }
  int num_cells() const { return num_cells_; }

  /// Net name for an id (ids are dense, name-sorted).
  const std::string& name(int net) const {
    return flat_->net_name(table_id_[static_cast<std::size_t>(net)]);
  }

  /// Dense id for a signal-net name; -1 for unknown or supply-class nets.
  int id_of(std::string_view net_name) const;

  /// Pin connections on `net`, counted with multiplicity (two pins of the
  /// same cell on one net count twice) — the router estimator's pin count.
  int connection_count(int net) const {
    return conn_count_[static_cast<std::size_t>(net)];
  }

  /// Unique member cells of `net` (flat indices, ascending).
  Span<int> members(int net) const {
    const auto n = static_cast<std::size_t>(net);
    return {members_.data() + member_off_[n],
            members_.data() + member_off_[n + 1]};
  }

  /// Unique signal nets touching `cell` (ascending id = name order).
  Span<int> nets_of(int cell) const {
    const auto c = static_cast<std::size_t>(cell);
    return {cell_nets_.data() + cell_net_off_[c],
            cell_nets_.data() + cell_net_off_[c + 1]};
  }

  /// Signal-pin connections of `cell` in connection-map (pin-name) order.
  Span<CellPin> cell_pins(int cell) const {
    const auto c = static_cast<std::size_t>(cell);
    return {cell_pins_.data() + cell_pin_off_[c],
            cell_pins_.data() + cell_pin_off_[c + 1]};
  }

 private:
  const netlist::FlatNetlist* flat_ = nullptr;
  int num_cells_ = 0;
  std::vector<std::uint32_t> table_id_;  // id -> the netlist's net id
  std::vector<int> signal_id_;           // netlist net id -> id, -1 supply
  std::vector<int> conn_count_;          // id -> pin connections

  // CSR: net id -> unique member cells.
  std::vector<std::size_t> member_off_;
  std::vector<int> members_;

  // CSR: cell -> unique net ids.
  std::vector<std::size_t> cell_net_off_;
  std::vector<int> cell_nets_;

  // CSR: cell -> signal pins in connection order.
  std::vector<std::size_t> cell_pin_off_;
  std::vector<CellPin> cell_pins_;
};

}  // namespace vcoadc::synth
