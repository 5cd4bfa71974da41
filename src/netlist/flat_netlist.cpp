#include "netlist/flat_netlist.h"

#include <algorithm>

namespace vcoadc::netlist {

namespace {

/// The index of `name` in the sorted `table`; -1 when absent.
int find_sorted(const std::vector<std::string>& table, std::string_view name) {
  const auto it = std::lower_bound(
      table.begin(), table.end(), name,
      [](const std::string& a, std::string_view b) { return a < b; });
  if (it == table.end() || *it != name) return -1;
  return static_cast<int>(it - table.begin());
}

bool strictly_sorted(const std::vector<std::string>& table) {
  return std::adjacent_find(table.begin(), table.end(),
                            [](const std::string& a, const std::string& b) {
                              return !(a < b);
                            }) == table.end();
}

}  // namespace

int FlatNetlist::find_net(std::string_view name) const {
  return find_sorted(nets_, name);
}

int FlatNetlist::find_pin(std::string_view name) const {
  return find_sorted(pin_names_, name);
}

int FlatNetlist::net_on(std::size_t cell, std::string_view pin) const {
  const int id = find_pin(pin);
  if (id < 0) return -1;
  for (const FlatPin& p : pins(cell)) {
    if (p.pin == static_cast<std::uint32_t>(id)) return static_cast<int>(p.net);
  }
  return -1;
}

std::optional<FlatNetlist> FlatNetlist::from_parts(
    std::vector<FlatInstance> cells, std::vector<std::string> nets,
    std::vector<std::string> pin_names, std::vector<std::uint32_t> offsets,
    std::vector<FlatPin> conn) {
  if (!strictly_sorted(nets) || !strictly_sorted(pin_names)) return {};
  if (offsets.size() != cells.size() + 1 || offsets.front() != 0 ||
      offsets.back() != conn.size()) {
    return {};
  }
  std::vector<bool> used(nets.size(), false);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (offsets[c] > offsets[c + 1]) return {};
    for (std::uint32_t k = offsets[c]; k < offsets[c + 1]; ++k) {
      const FlatPin& p = conn[k];
      if (p.pin >= pin_names.size() || p.net >= nets.size()) return {};
      if (k > offsets[c] && conn[k - 1].pin >= p.pin) return {};
      used[p.net] = true;
    }
  }
  if (std::find(used.begin(), used.end(), false) != used.end()) return {};
  FlatNetlist out;
  out.cells_ = std::move(cells);
  out.nets_ = std::move(nets);
  out.pin_names_ = std::move(pin_names);
  out.pin_off_ = std::move(offsets);
  out.conn_ = std::move(conn);
  return out;
}

std::uint32_t FlatNetlistBuilder::Names::id(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  ids_.emplace(names_.emplace_back(name), id);
  return id;
}

void FlatNetlistBuilder::reserve(std::size_t cells, std::size_t pins) {
  cells_.reserve(cells);
  starts_.reserve(cells);
  conn_.reserve(pins);
}

void FlatNetlistBuilder::add_cell(FlatInstance cell) {
  cells_.push_back(std::move(cell));
  starts_.push_back(static_cast<std::uint32_t>(conn_.size()));
}

void FlatNetlistBuilder::connect(std::string_view pin, std::uint32_t net) {
  conn_.push_back({pins_.id(pin), net});
}

FlatNetlist FlatNetlistBuilder::build() && {
  // Each table keeps its used names in sorted order; rank[] takes a
  // provisional id to its final one.
  auto sort_table = [](Names& names, const std::vector<bool>& used,
                       std::vector<std::string>& table,
                       std::vector<std::uint32_t>& rank) {
    std::vector<std::uint32_t> order;
    order.reserve(names.size());
    for (std::uint32_t id = 0; id < names.size(); ++id) {
      if (used[id]) order.push_back(id);
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return names[a] < names[b];
              });
    rank.assign(names.size(), 0);
    table.reserve(order.size());
    for (const std::uint32_t id : order) {
      rank[id] = static_cast<std::uint32_t>(table.size());
      table.push_back(std::move(names[id]));
    }
  };
  FlatNetlist out;
  std::vector<std::uint32_t> rank;
  sort_table(pins_, std::vector<bool>(pins_.size(), true), out.pin_names_,
             rank);

  // Each cell's connections in pin-name order, the first of a repeated pin
  // kept (stable sort), compacted in place.
  starts_.push_back(static_cast<std::uint32_t>(conn_.size()));
  out.pin_off_.resize(cells_.size() + 1);
  std::size_t w = 0;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const auto first = conn_.begin() + starts_[c];
    const auto last = conn_.begin() + starts_[c + 1];
    for (auto it = first; it != last; ++it) it->pin = rank[it->pin];
    std::stable_sort(first, last, [](const FlatPin& a, const FlatPin& b) {
      return a.pin < b.pin;
    });
    out.pin_off_[c] = static_cast<std::uint32_t>(w);
    for (auto it = first; it != last; ++it) {
      if (it != first && (it - 1)->pin == it->pin) continue;
      conn_[w++] = *it;
    }
  }
  out.pin_off_[cells_.size()] = static_cast<std::uint32_t>(w);
  conn_.resize(w);

  std::vector<bool> net_used(nets_.size(), false);
  for (const FlatPin& p : conn_) net_used[p.net] = true;
  sort_table(nets_, net_used, out.nets_, rank);
  for (FlatPin& p : conn_) p.net = rank[p.net];

  conn_.shrink_to_fit();
  out.conn_ = std::move(conn_);
  out.cells_ = std::move(cells_);
  out.cells_.shrink_to_fit();
  return out;
}

}  // namespace vcoadc::netlist
