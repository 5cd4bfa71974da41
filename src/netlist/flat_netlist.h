// The flattened netlist every layout stage reads: leaf cells with
// hierarchical names, and their connections on dense integer ids.
//
// Net and pin names are each held once, in a lexicographically sorted
// table, so a net's id is its rank in name order: iterating ids visits
// nets in the order a name-keyed std::map did. Every cell's connections
// are (pin, net) id pairs in pin-name order, all cells' in one CSR array
// (an offset per cell into one pin array), so a netlist costs a few
// vectors whatever its pin count: no allocation per pin.
//
// A netlist is immutable once built. The stage graph builds one per design
// (Design::flatten) and shares it: the floorplan artifact owns it, and the
// route artifact's Layout points at the same object.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/cell_library.h"

namespace vcoadc::netlist {

/// A leaf cell instance after flattening, with hierarchical names. Its
/// connections are held by the FlatNetlist it belongs to.
struct FlatInstance {
  std::string path;          ///< e.g. "slice3/I7"
  const StdCell* cell = nullptr;
  std::string power_domain;
  std::string group;
};

/// One connection of a flat cell: an index into its netlist's pin-name
/// table and one into its net-name table.
struct FlatPin {
  std::uint32_t pin = 0;
  std::uint32_t net = 0;

  bool operator==(const FlatPin&) const = default;
};

class FlatNetlist {
 public:
  FlatNetlist() = default;

  // The cells, in flatten order: the index every layout stage refers to.
  std::size_t size() const { return cells_.size(); }
  bool empty() const { return cells_.empty(); }
  const FlatInstance& operator[](std::size_t i) const { return cells_[i]; }
  std::vector<FlatInstance>::const_iterator begin() const {
    return cells_.begin();
  }
  std::vector<FlatInstance>::const_iterator end() const {
    return cells_.end();
  }

  /// Every net some pin connects to, sorted by name (id = position).
  const std::vector<std::string>& nets() const { return nets_; }
  /// Every connected pin name, sorted (id = position).
  const std::vector<std::string>& pin_names() const { return pin_names_; }
  const std::string& net_name(std::uint32_t net) const { return nets_[net]; }
  const std::string& pin_name(std::uint32_t pin) const {
    return pin_names_[pin];
  }

  /// The id of the net named `name`; -1 when no pin connects to it.
  int find_net(std::string_view name) const;
  /// The id of the pin name `name`; -1 when no cell connects that pin.
  int find_pin(std::string_view name) const;

  /// Cell `cell`'s connections, in pin-name order.
  std::span<const FlatPin> pins(std::size_t cell) const {
    return {conn_.data() + pin_off_[cell], conn_.data() + pin_off_[cell + 1]};
  }
  /// The net on pin `pin` of cell `cell`; -1 when that pin is open.
  int net_on(std::size_t cell, std::string_view pin) const;

  /// The CSR form: cell i's pins are connections()[pin_offsets()[i] ..
  /// pin_offsets()[i + 1]).
  const std::vector<std::uint32_t>& pin_offsets() const { return pin_off_; }
  const std::vector<FlatPin>& connections() const { return conn_; }

  /// Reassembles a netlist from its parts (a store record's decode):
  /// nullopt unless both tables are strictly sorted, every net has a pin,
  /// the offsets run from 0 to conn.size() without going down, one per
  /// cell plus one, and each cell's pin ids are in range and increasing.
  static std::optional<FlatNetlist> from_parts(
      std::vector<FlatInstance> cells, std::vector<std::string> nets,
      std::vector<std::string> pin_names, std::vector<std::uint32_t> offsets,
      std::vector<FlatPin> conn);

 private:
  friend class FlatNetlistBuilder;

  std::vector<FlatInstance> cells_;
  std::vector<std::string> nets_;
  std::vector<std::string> pin_names_;
  std::vector<std::uint32_t> pin_off_{0};  ///< cells + 1 offsets into conn_
  std::vector<FlatPin> conn_;
};

/// Builds a FlatNetlist cell by cell from names, in any order: build()
/// sorts the name tables and renumbers every connection.
class FlatNetlistBuilder {
 public:
  /// Room for `cells` cells and about `pins` connections.
  void reserve(std::size_t cells, std::size_t pins);

  /// Starts the next cell; the connections made after it are its own.
  void add_cell(FlatInstance cell);

  /// The builder's id for the net named `name`, given on first use. Ids
  /// are provisional: build() renumbers them into name order.
  std::uint32_t net(std::string_view name) { return nets_.id(name); }

  /// Connects `pin` of the last added cell to `net`, an id from net().
  void connect(std::string_view pin, std::uint32_t net);

  /// The netlist. Nets that no pin connects to are left out; a pin
  /// connected twice keeps its first net.
  FlatNetlist build() &&;

 private:
  /// Names with ids in first-use order.
  class Names {
   public:
    std::uint32_t id(std::string_view name);
    std::size_t size() const { return names_.size(); }
    std::string& operator[](std::uint32_t id) { return names_[id]; }

   private:
    std::deque<std::string> names_;  ///< stable: the map's keys view it
    std::unordered_map<std::string_view, std::uint32_t> ids_;
  };

  std::vector<FlatInstance> cells_;
  std::vector<std::uint32_t> starts_;  ///< each cell's first connection
  std::vector<FlatPin> conn_;          ///< provisional ids
  Names nets_;
  Names pins_;
};

}  // namespace vcoadc::netlist
