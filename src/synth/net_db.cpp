#include "synth/net_db.h"

#include <algorithm>

namespace vcoadc::synth {

NetDb::NetDb(const netlist::FlatNetlist& flat) : flat_(&flat) {
  num_cells_ = static_cast<int>(flat.size());

  // The netlist's net table is name-sorted, so numbering its signal nets
  // in table order gives each its lexicographic rank (see header).
  signal_id_.assign(flat.nets().size(), -1);
  for (std::size_t t = 0; t < flat.nets().size(); ++t) {
    if (netlist::is_supply_net(flat.nets()[t])) continue;
    signal_id_[t] = static_cast<int>(table_id_.size());
    table_id_.push_back(static_cast<std::uint32_t>(t));
  }
  const std::size_t n_nets = table_id_.size();
  const std::size_t n_cells = flat.size();

  // Counting pass for the three CSR structures.
  conn_count_.assign(n_nets, 0);
  std::vector<std::size_t> member_cnt(n_nets, 0);
  cell_pin_off_.assign(n_cells + 1, 0);
  cell_net_off_.assign(n_cells + 1, 0);
  for (std::size_t c = 0; c < n_cells; ++c) {
    for (const netlist::FlatPin& p : flat.pins(c)) {
      const int net = signal_id_[p.net];
      if (net < 0) continue;
      ++conn_count_[static_cast<std::size_t>(net)];
      ++cell_pin_off_[c + 1];
    }
  }

  // Fill the per-cell pin list (connection order) and, from it, the per-cell
  // unique net list and per-net member counts.
  for (std::size_t c = 0; c < n_cells; ++c) {
    cell_pin_off_[c + 1] += cell_pin_off_[c];
  }
  cell_pins_.resize(cell_pin_off_[n_cells]);
  std::vector<int> scratch;
  for (std::size_t c = 0; c < n_cells; ++c) {
    std::size_t w = cell_pin_off_[c];
    scratch.clear();
    for (const netlist::FlatPin& p : flat.pins(c)) {
      const int net = signal_id_[p.net];
      if (net < 0) continue;
      cell_pins_[w++] = CellPin{net, &flat.pin_name(p.pin)};
      scratch.push_back(net);
    }
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    cell_net_off_[c + 1] = cell_net_off_[c] + scratch.size();
    for (int net : scratch) {
      cell_nets_.push_back(net);
      ++member_cnt[static_cast<std::size_t>(net)];
    }
  }

  // Per-net unique members: cells are visited in ascending index, so each
  // net's member list comes out sorted without a final sort.
  member_off_.assign(n_nets + 1, 0);
  for (std::size_t n = 0; n < n_nets; ++n) {
    member_off_[n + 1] = member_off_[n] + member_cnt[n];
  }
  members_.resize(member_off_[n_nets]);
  std::vector<std::size_t> write_pos(member_off_.begin(),
                                     member_off_.end() - 1);
  for (std::size_t c = 0; c < n_cells; ++c) {
    for (int net : nets_of(static_cast<int>(c))) {
      members_[write_pos[static_cast<std::size_t>(net)]++] =
          static_cast<int>(c);
    }
  }
}

int NetDb::id_of(std::string_view net_name) const {
  if (flat_ == nullptr) return -1;
  const int t = flat_->find_net(net_name);
  return t < 0 ? -1 : signal_id_[static_cast<std::size_t>(t)];
}

}  // namespace vcoadc::synth
