#include "core/artifact_serde.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netlist/verilog_parser.h"

namespace vcoadc::core {

namespace {

using netlist::CellLibrary;
using netlist::FlatInstance;
using netlist::PinSpec;
using netlist::PortDir;
using netlist::StdCell;

// --- shared sub-encoders --------------------------------------------------

void encode_cell(const StdCell& c, serde::Writer& w) {
  w.str(c.name);
  w.str(c.function);
  w.i64(c.drive);
  w.f64(c.width_m);
  w.f64(c.height_m);
  w.size(c.pins.size());
  for (const PinSpec& p : c.pins) {
    w.str(p.name);
    w.u8(static_cast<std::uint8_t>(p.dir));
  }
  w.f64(c.input_cap_f);
  w.f64(c.leakage_w);
  w.boolean(c.is_resistor);
  w.f64(c.resistance_ohms);
  w.str(c.power_pin);
  w.str(c.ground_pin);
}

bool decode_cell(serde::Reader& r, StdCell& c) {
  c.name = r.str();
  c.function = r.str();
  c.drive = static_cast<int>(r.i64());
  c.width_m = r.f64();
  c.height_m = r.f64();
  const std::size_t npins = r.size();
  c.pins.clear();
  c.pins.reserve(npins);
  for (std::size_t i = 0; i < npins && r.ok(); ++i) {
    PinSpec p;
    p.name = r.str();
    p.dir = static_cast<PortDir>(r.u8());
    c.pins.push_back(std::move(p));
  }
  c.input_cap_f = r.f64();
  c.leakage_w = r.f64();
  c.is_resistor = r.boolean();
  c.resistance_ohms = r.f64();
  c.power_pin = r.str();
  c.ground_pin = r.str();
  return r.ok();
}

void encode_library(const CellLibrary& lib, serde::Writer& w) {
  w.str(lib.name());
  w.size(lib.cells().size());
  for (const StdCell& c : lib.cells()) encode_cell(c, w);
}

std::shared_ptr<CellLibrary> decode_library(serde::Reader& r) {
  auto lib = std::make_shared<CellLibrary>(r.str());
  const std::size_t n = r.size();
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    StdCell c;
    if (!decode_cell(r, c)) return nullptr;
    lib->add(std::move(c));
  }
  return r.ok() ? lib : nullptr;
}

// --- names: one table per record ------------------------------------------
//
// The design_bundle, floorplan and synthesis records (type_version 2) keep
// one name table each: every distinct module, port, net, pin, instance,
// master, domain, group and region name once, in first-use order, followed
// by a body that refers to the names by u32 index. The encoder interns
// names while it writes the body, then inserts the table ahead of it, so a
// decoder holds every name before the first index. Decoded names are
// views into the payload, copied only into the objects that carry them.

/// A name's length and two words of its bytes, loaded so that they
/// overlap: between them they hold every byte of a name of up to 16 bytes,
/// so two such keys are equal exactly when the names are. Longer names
/// also compare their bytes. Fixed-size loads keep it free of calls.
struct NameKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t size = 0;

  explicit NameKey(std::string_view s) : size(s.size()) {
    const char* p = s.data();
    const std::size_t n = s.size();
    if (n >= 8) {
      lo = load<std::uint64_t>(p);
      hi = load<std::uint64_t>(p + n - 8);
    } else if (n >= 4) {
      lo = load<std::uint32_t>(p);
      hi = load<std::uint32_t>(p + n - 4);
    } else if (n > 0) {
      lo = byte(p[0]) | byte(p[n / 2]) << 8 | byte(p[n - 1]) << 16;
    }
  }

  bool operator==(const NameKey&) const = default;

  /// A multiplicative hash whose high bits pick the slot; every byte of a
  /// long name enters it. Host byte order, as only slot positions depend
  /// on it.
  std::uint64_t hash(std::string_view s) const {
    std::uint64_t h = (lo ^ size) * 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 8; i + 8 < s.size(); i += 8) {
      h = (h ^ h >> 29 ^ load<std::uint64_t>(s.data() + i)) *
          0xbf58476d1ce4e5b9ull;
    }
    return (h ^ h >> 29 ^ hi) * 0x94d049bb133111ebull;
  }

 private:
  template <typename U>
  static std::uint64_t load(const char* p) {
    U v;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  static std::uint64_t byte(char c) { return static_cast<unsigned char>(c); }
};

/// The encoder's side: the index each name got on its first use, in an
/// open-addressing table of (index + 1, hash bits) slots at most half full
/// beside the keys in index order. Names are held as views, so they must
/// outlive the table.
class NameTableWriter {
 public:
  /// Sized for about `expected` names, so a table that stays near that
  /// never regrows.
  explicit NameTableWriter(std::size_t expected) {
    names_.reserve(expected);
    keys_.reserve(expected);
    grow(std::bit_ceil(2 * expected + 2));
  }

  /// Writes the index of `s`.
  void put(std::string_view s, serde::Writer& w) { w.u32(id(s)); }

  /// Inserts the table at byte offset `at` of `w`, ahead of the body
  /// written since: the name count, then each name as a Writer::str.
  void insert(serde::Writer& w, std::size_t at) const {
    serde::Writer table;
    table.size(names_.size());
    for (const std::string_view n : names_) table.str(n);
    w.insert(at, table);
  }

 private:
  struct Slot {
    std::uint32_t id1 = 0;  ///< index + 1; 0 = empty
    std::uint32_t hash = 0;  ///< the hash's low bits
  };

  std::uint32_t id(std::string_view s) {
    if (2 * (names_.size() + 1) > slots_.size()) grow(2 * slots_.size());
    const NameKey key(s);
    const std::uint64_t h = key.hash(s);
    const auto tag = static_cast<std::uint32_t>(h);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h >> shift_;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id1 == 0) {
        names_.push_back(s);
        keys_.push_back(key);
        slot = {static_cast<std::uint32_t>(names_.size()), tag};
        return slot.id1 - 1;
      }
      if (slot.hash == tag && keys_[slot.id1 - 1] == key &&
          (key.size <= 16 || names_[slot.id1 - 1] == s)) {
        return slot.id1 - 1;
      }
    }
  }

  /// Rehashes into n slots, a power of two.
  void grow(std::size_t n) {
    slots_.assign(n, Slot{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
    for (std::size_t k = 0; k < names_.size(); ++k) {
      const std::uint64_t h = keys_[k].hash(names_[k]);
      std::size_t i = h >> shift_;
      while (slots_[i].id1 != 0) i = (i + 1) & (n - 1);
      slots_[i] = {static_cast<std::uint32_t>(k + 1),
                   static_cast<std::uint32_t>(h)};
    }
  }

  std::vector<std::string_view> names_;
  std::vector<NameKey> keys_;
  std::vector<Slot> slots_;
  unsigned shift_ = 0;  ///< 64 - log2(slot count)
};

/// The decoder's side: the table's names as views into the payload, valid
/// while the payload is.
class NameTable {
 public:
  bool read(serde::Reader& r) {
    const std::size_t n = r.size();
    names_.reserve(n);
    for (std::size_t i = 0; i < n && r.ok(); ++i) names_.push_back(r.view());
    return r.ok();
  }

  /// Reads a name index; one past the table latches !ok() and yields 0.
  std::uint32_t index(serde::Reader& r) const {
    return r.index(names_.size());
  }

  /// The name a stored index refers to ("" once `r` is !ok()).
  std::string_view get(serde::Reader& r) const {
    const std::uint32_t i = index(r);
    return r.ok() ? names_[i] : std::string_view();
  }

  std::string_view operator[](std::uint32_t i) const { return names_[i]; }
  std::size_t size() const { return names_.size(); }

 private:
  std::vector<std::string_view> names_;
};

/// Names written out where they occur: the placement codec's (v1) form of
/// a region name. One type serves both directions, which the two classes
/// above split between them.
struct InlineNames {
  void put(std::string_view s, serde::Writer& w) { w.str(s); }
  std::string_view get(serde::Reader& r) const { return r.view(); }
};

/// A pin -> net map as (pin, net) index pairs in the map's own order, so a
/// decoded entry always goes in at the end.
void encode_conn(const std::map<std::string, std::string>& conn,
                 NameTableWriter& names, serde::Writer& w) {
  w.size(conn.size());
  for (const auto& [pin, net] : conn) {
    names.put(pin, w);
    names.put(net, w);
  }
}

void decode_conn(serde::Reader& r, const NameTable& names,
                 std::map<std::string, std::string>& conn) {
  const std::size_t n = r.size();
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    const std::string_view pin = names.get(r);
    const std::string_view net = names.get(r);
    conn.emplace_hint(conn.end(), pin, net);
  }
}

/// The StdCells a flat vector references, as the self-contained library a
/// flat-carrying record embeds (distinct by name, first-reference order, so
/// the bytes are deterministic), plus each instance's cell as an index into
/// it: 0 for none, else the cell's position + 1. The embedded cells carry
/// everything downstream stages read through FlatInstance::cell.
struct ReferencedCells {
  CellLibrary lib{"store"};
  std::vector<std::uint32_t> index;  ///< one per flat instance
};

ReferencedCells referenced_cells(const std::vector<FlatInstance>& flat) {
  ReferencedCells out;
  out.index.reserve(flat.size());
  // By pointer first; a cell seen at a new address is matched by name.
  std::unordered_map<const StdCell*, std::uint32_t> by_cell;
  for (const FlatInstance& fi : flat) {
    if (fi.cell == nullptr) {
      out.index.push_back(0);
      continue;
    }
    auto [it, fresh] = by_cell.try_emplace(fi.cell, 0);
    if (fresh) {
      if (const StdCell* known = out.lib.find(fi.cell->name)) {
        it->second = static_cast<std::uint32_t>(known - out.lib.cells().data());
      } else {
        it->second = static_cast<std::uint32_t>(out.lib.cells().size());
        out.lib.add(*fi.cell);
      }
      ++it->second;
    }
    out.index.push_back(it->second);
  }
  return out;
}

void encode_flat(const std::vector<FlatInstance>& flat,
                 const ReferencedCells& cells, NameTableWriter& names,
                 serde::Writer& w) {
  w.size(flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    const FlatInstance& fi = flat[i];
    names.put(fi.path, w);
    w.u32(cells.index[i]);
    encode_conn(fi.conn, names, w);
    names.put(fi.power_domain, w);
    names.put(fi.group, w);
  }
}

/// Re-points each instance into `lib`, the record's embedded library.
bool decode_flat(serde::Reader& r, const CellLibrary& lib,
                 const NameTable& names, std::vector<FlatInstance>& flat) {
  const std::vector<StdCell>& cells = lib.cells();
  const std::size_t n = r.size();
  flat.clear();
  flat.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    FlatInstance& fi = flat.emplace_back();
    fi.path = names.get(r);
    if (const std::uint32_t c = r.index(cells.size() + 1); c != 0) {
      fi.cell = &cells[c - 1];
    }
    decode_conn(r, names, fi.conn);
    fi.power_domain = names.get(r);
    fi.group = names.get(r);
  }
  return r.ok();
}

void encode_rect(const synth::Rect& rect, serde::Writer& w) {
  w.f64(rect.x);
  w.f64(rect.y);
  w.f64(rect.w);
  w.f64(rect.h);
}

synth::Rect decode_rect(serde::Reader& r) {
  synth::Rect rect;
  rect.x = r.f64();
  rect.y = r.f64();
  rect.w = r.f64();
  rect.h = r.f64();
  return rect;
}

void encode_floorplan(const synth::Floorplan& fp, NameTableWriter& names,
                      serde::Writer& w) {
  encode_rect(fp.die, w);
  w.f64(fp.row_height_m);
  w.f64(fp.site_width_m);
  w.size(fp.regions.size());
  for (const synth::PlacedRegion& pr : fp.regions) {
    names.put(pr.spec.name, w);
    w.boolean(pr.spec.is_group);
    w.i32s(pr.spec.members);
    w.f64(pr.spec.cell_area_m2);
    w.f64(pr.spec.max_cell_width_m);
    encode_rect(pr.rect, w);
  }
}

bool decode_floorplan(serde::Reader& r, const NameTable& names,
                      synth::Floorplan& fp) {
  fp.die = decode_rect(r);
  fp.row_height_m = r.f64();
  fp.site_width_m = r.f64();
  const std::size_t n = r.size();
  fp.regions.clear();
  fp.regions.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    synth::PlacedRegion& pr = fp.regions.emplace_back();
    pr.spec.name = names.get(r);
    pr.spec.is_group = r.boolean();
    r.i32s(pr.spec.members);
    pr.spec.cell_area_m2 = r.f64();
    pr.spec.max_cell_width_m = r.f64();
    pr.rect = decode_rect(r);
  }
  return r.ok();
}

/// Region names go through `names`: inline in the placement codec (v1),
/// table indices inside a synthesis record.
template <typename Names>
void encode_placement(const synth::Placement& pl, Names& names,
                      serde::Writer& w) {
  w.size(pl.cells.size());
  for (const synth::PlacedCell& c : pl.cells) {
    w.i64(c.flat_index);
    encode_rect(c.rect, w);
    w.i64(c.row);
    names.put(c.region, w);
  }
  w.boolean(pl.overflow);
}

template <typename Names>
bool decode_placement(serde::Reader& r, const Names& names,
                      synth::Placement& pl) {
  const std::size_t n = r.size();
  pl.cells.clear();
  pl.cells.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    synth::PlacedCell& c = pl.cells.emplace_back();
    c.flat_index = static_cast<int>(r.i64());
    c.rect = decode_rect(r);
    c.row = static_cast<int>(r.i64());
    c.region = names.get(r);
  }
  pl.overflow = r.boolean();
  return r.ok();
}

void encode_routing_estimate(const synth::RoutingEstimate& re,
                             NameTableWriter& names, serde::Writer& w) {
  w.size(re.nets.size());
  for (const synth::NetRoute& nr : re.nets) {
    names.put(nr.net, w);
    w.i64(nr.pins);
    w.f64(nr.hpwl_m);
    w.f64(nr.est_length_m);
  }
  w.f64(re.total_hpwl_m);
  w.f64(re.total_est_length_m);
  w.i64(re.congestion.nx);
  w.i64(re.congestion.ny);
  w.f64s(re.congestion.demand);
  w.f64(re.congestion.max_demand);
  w.f64(re.congestion.mean_demand);
  w.f64(re.wire_cap_f);
}

bool decode_routing_estimate(serde::Reader& r, const NameTable& names,
                             synth::RoutingEstimate& re) {
  const std::size_t n = r.size();
  re.nets.clear();
  re.nets.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    synth::NetRoute& nr = re.nets.emplace_back();
    nr.net = names.get(r);
    nr.pins = static_cast<int>(r.i64());
    nr.hpwl_m = r.f64();
    nr.est_length_m = r.f64();
  }
  re.total_hpwl_m = r.f64();
  re.total_est_length_m = r.f64();
  re.congestion.nx = static_cast<int>(r.i64());
  re.congestion.ny = static_cast<int>(r.i64());
  r.f64s(re.congestion.demand);
  re.congestion.max_demand = r.f64();
  re.congestion.mean_demand = r.f64();
  re.wire_cap_f = r.f64();
  return r.ok();
}

// A route path is one packed integer array: its point count, then each
// point's x, y and layer as 4-byte little-endian integers. A GridPoint is
// those three ints, so on a little-endian host a path's storage already is
// that array and one memcpy moves it; elsewhere the ints move one at a time.
constexpr std::size_t kPointBytes = 12;
constexpr bool kPackedPoints =
    serde::kNativeLittleEndian && sizeof(int) == 4 &&
    sizeof(synth::GridPoint) == kPointBytes &&
    std::is_trivially_copyable_v<synth::GridPoint> &&
    offsetof(synth::GridPoint, x) == 0 && offsetof(synth::GridPoint, y) == 4 &&
    offsetof(synth::GridPoint, layer) == 8;

void encode_path(const std::vector<synth::GridPoint>& path, serde::Writer& w) {
  w.size(path.size());
  if constexpr (kPackedPoints) {
    if (path.empty()) return;
    std::memcpy(w.raw(path.size() * kPointBytes), path.data(),
                path.size() * kPointBytes);
  } else {
    for (const synth::GridPoint& gp : path) {
      w.u32(static_cast<std::uint32_t>(gp.x));
      w.u32(static_cast<std::uint32_t>(gp.y));
      w.u32(static_cast<std::uint32_t>(gp.layer));
    }
  }
}

bool decode_path(serde::Reader& r, std::vector<synth::GridPoint>& path) {
  // size() bounds the count by the bytes left, so the byte count cannot
  // overflow; raw() then checks the bytes themselves.
  const std::size_t n = r.size();
  const std::uint8_t* p = r.raw(n * kPointBytes);
  if (!r.ok()) return false;
  path.resize(n);
  if constexpr (kPackedPoints) {
    if (n != 0) std::memcpy(path.data(), p, n * kPointBytes);
  } else {
    for (std::size_t k = 0; k < n; ++k, p += kPointBytes) {
      path[k].x = static_cast<int>(serde::load_le<std::uint32_t>(p));
      path[k].y = static_cast<int>(serde::load_le<std::uint32_t>(p + 4));
      path[k].layer = static_cast<int>(serde::load_le<std::uint32_t>(p + 8));
    }
  }
  return true;
}

void encode_maze_result(const synth::MazeRouteResult& mr,
                        NameTableWriter& names, serde::Writer& w) {
  w.size(mr.nets.size());
  for (const synth::RoutedNet& net : mr.nets) {
    names.put(net.name, w);
    w.i64(net.pins);
    w.size(net.paths.size());
    for (const auto& path : net.paths) encode_path(path, w);
    w.f64(net.wirelength_m);
    w.i64(net.vias);
    w.boolean(net.routed);
  }
  w.f64(mr.total_wirelength_m);
  w.i64(mr.total_vias);
  w.i64(mr.failed_nets);
  w.i64(mr.overflowed_edges);
  w.i64(mr.grid_x);
  w.i64(mr.grid_y);
}

bool decode_maze_result(serde::Reader& r, const NameTable& names,
                        synth::MazeRouteResult& mr) {
  const std::size_t n = r.size();
  mr.nets.clear();
  mr.nets.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    synth::RoutedNet& net = mr.nets.emplace_back();
    net.name = names.get(r);
    net.pins = static_cast<int>(r.i64());
    const std::size_t np = r.size();
    net.paths.reserve(np);
    for (std::size_t j = 0; j < np && r.ok(); ++j) {
      if (!decode_path(r, net.paths.emplace_back())) return false;
    }
    net.wirelength_m = r.f64();
    net.vias = static_cast<int>(r.i64());
    net.routed = r.boolean();
  }
  mr.total_wirelength_m = r.f64();
  mr.total_vias = static_cast<int>(r.i64());
  mr.failed_nets = static_cast<int>(r.i64());
  mr.overflowed_edges = static_cast<int>(r.i64());
  mr.grid_x = static_cast<int>(r.i64());
  mr.grid_y = static_cast<int>(r.i64());
  return r.ok();
}

void encode_drc(const synth::DrcReport& drc, serde::Writer& w) {
  w.size(drc.violations.size());
  for (const synth::DrcViolation& v : drc.violations) {
    w.u8(static_cast<std::uint8_t>(v.kind));
    w.str(v.detail);
  }
}

bool decode_drc(serde::Reader& r, synth::DrcReport& drc) {
  const std::size_t n = r.size();
  drc.violations.clear();
  drc.violations.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    synth::DrcViolation v;
    v.kind = static_cast<synth::DrcKind>(r.u8());
    v.detail = r.str();
    drc.violations.push_back(std::move(v));
  }
  return r.ok();
}

void encode_layout_stats(const synth::LayoutStats& st, serde::Writer& w) {
  w.f64(st.die_area_m2);
  w.f64(st.cell_area_m2);
  w.f64(st.utilization);
  w.i64(st.num_cells);
  w.i64(st.num_rows);
  w.i64(st.num_regions);
}

synth::LayoutStats decode_layout_stats(serde::Reader& r) {
  synth::LayoutStats st;
  st.die_area_m2 = r.f64();
  st.cell_area_m2 = r.f64();
  st.utilization = r.f64();
  st.num_cells = static_cast<int>(r.i64());
  st.num_rows = static_cast<int>(r.i64());
  st.num_regions = static_cast<int>(r.i64());
  return st;
}

/// Hierarchical design over a decoded library (lives only inside the
/// DesignBundle codec — flat-carrying artifacts store flat form).
void encode_design(const netlist::Design& d, NameTableWriter& names,
                   serde::Writer& w) {
  names.put(d.top(), w);
  w.size(d.modules().size());
  for (const netlist::Module& mod : d.modules()) {
    names.put(mod.name(), w);
    w.size(mod.ports().size());
    for (const netlist::Port& p : mod.ports()) {
      names.put(p.name, w);
      w.u8(static_cast<std::uint8_t>(p.dir));
    }
    w.size(mod.nets().size());
    for (const std::string& net : mod.nets()) names.put(net, w);
    w.size(mod.instances().size());
    for (const netlist::Instance& inst : mod.instances()) {
      names.put(inst.name, w);
      names.put(inst.master, w);
      encode_conn(inst.conn, names, w);
      names.put(inst.power_domain, w);
      names.put(inst.group, w);
    }
  }
}

std::shared_ptr<netlist::Design> decode_design(serde::Reader& r,
                                               const CellLibrary* lib,
                                               const NameTable& names) {
  auto d = std::make_shared<netlist::Design>(lib);
  const std::string_view top = names.get(r);
  const std::size_t nmod = r.size();
  // Per name, the last module visit (from 1) that declared it a port or a
  // net: Module::add_net's duplicate check without its scan, exact while
  // the table's names are distinct, as the encoder writes them. A module
  // the record names twice keeps add_net.
  std::vector<std::uint32_t> declared(names.size(), 0);
  for (std::size_t i = 0; i < nmod && r.ok(); ++i) {
    const auto visit = static_cast<std::uint32_t>(i + 1);
    netlist::Module& mod = d->add_module(std::string(names.get(r)));
    const bool fresh = mod.ports().empty() && mod.nets().empty();
    const std::size_t nports = r.size();
    for (std::size_t j = 0; j < nports && r.ok(); ++j) {
      const std::uint32_t id = names.index(r);
      const auto dir = static_cast<PortDir>(r.u8());
      if (!r.ok()) break;
      mod.add_port(std::string(names[id]), dir);
      declared[id] = visit;
    }
    const std::size_t nnets = r.size();
    for (std::size_t j = 0; j < nnets && r.ok(); ++j) {
      const std::uint32_t id = names.index(r);
      if (!r.ok()) break;
      if (!fresh) {
        mod.add_net(std::string(names[id]));
      } else if (declared[id] != visit) {
        declared[id] = visit;
        mod.append_net(std::string(names[id]));
      }
    }
    const std::size_t ninst = r.size();
    for (std::size_t j = 0; j < ninst && r.ok(); ++j) {
      netlist::Instance inst;
      inst.name = names.get(r);
      inst.master = names.get(r);
      decode_conn(r, names, inst.conn);
      inst.power_domain = names.get(r);
      inst.group = names.get(r);
      mod.add_instance(std::move(inst));
    }
  }
  d->set_top(std::string(top));
  return r.ok() ? d : nullptr;
}

// --- the stage-artifact codecs --------------------------------------------

void encode_cell_library(const CellLibrary& lib, serde::Writer& w) {
  encode_library(lib, w);
}

std::shared_ptr<const CellLibrary> decode_cell_library(serde::Reader& r) {
  auto lib = decode_library(r);
  return (lib != nullptr && r.ok() && r.at_end()) ? lib : nullptr;
}

void encode_design_bundle(const DesignBundle& b, serde::Writer& w) {
  // A bundle with nulls is never cached (the netlist stage refuses it);
  // encode defensively anyway so a future misuse fails on decode, not UB.
  w.boolean(b.lib != nullptr && b.design != nullptr);
  if (b.lib == nullptr || b.design == nullptr) return;
  encode_library(*b.lib, w);
  const std::size_t table_at = w.length();
  std::size_t expected = 0;
  for (const netlist::Module& mod : b.design->modules()) {
    expected += mod.ports().size() + mod.nets().size() +
                2 * mod.instances().size();
  }
  NameTableWriter names(expected);
  encode_design(*b.design, names, w);
  names.insert(w, table_at);
}

std::shared_ptr<const DesignBundle> decode_design_bundle(serde::Reader& r) {
  if (!r.boolean() || !r.ok()) return nullptr;
  auto lib = decode_library(r);
  if (lib == nullptr) return nullptr;
  NameTable names;
  if (!names.read(r)) return nullptr;
  auto design = decode_design(r, lib.get(), names);
  if (design == nullptr || !r.ok() || !r.at_end()) return nullptr;
  auto b = std::make_shared<DesignBundle>();
  b->lib = std::move(lib);
  b->design = std::move(design);
  return b;
}

void encode_floorplan_artifact(const synth::FloorplanStageResult& a,
                               serde::Writer& w) {
  const ReferencedCells cells = referenced_cells(a.flat);
  encode_library(cells.lib, w);
  const std::size_t table_at = w.length();
  NameTableWriter names(2 * a.flat.size());
  encode_flat(a.flat, cells, names, w);
  encode_floorplan(a.fp, names, w);
  w.str(a.floorplan_spec);
  names.insert(w, table_at);
}

std::shared_ptr<const synth::FloorplanStageResult> decode_floorplan_artifact(
    serde::Reader& r) {
  auto lib = decode_library(r);
  if (lib == nullptr) return nullptr;
  NameTable names;
  if (!names.read(r)) return nullptr;
  auto a = std::make_shared<synth::FloorplanStageResult>();
  if (!decode_flat(r, *lib, names, a->flat)) return nullptr;
  if (!decode_floorplan(r, names, a->fp)) return nullptr;
  a->floorplan_spec = r.str();
  if (!r.ok() || !r.at_end()) return nullptr;
  a->owner = std::shared_ptr<const void>(lib);
  return a;
}

void encode_placement_artifact(const synth::Placement& pl, serde::Writer& w) {
  InlineNames names;
  encode_placement(pl, names, w);
}

std::shared_ptr<const synth::Placement> decode_placement_artifact(
    serde::Reader& r) {
  auto pl = std::make_shared<synth::Placement>();
  if (!decode_placement(r, InlineNames{}, *pl) || !r.at_end()) return nullptr;
  return pl;
}

void encode_synthesis_artifact(const synth::SynthesisResult& s,
                               serde::Writer& w) {
  w.str(s.floorplan_spec);
  // Failed results (diagnostics, null layout) are never cached, so the
  // persisted form carries a layout by construction; keep the flag so a
  // hand-damaged record fails decode instead of crashing.
  w.boolean(s.layout != nullptr);
  std::size_t table_at = w.length();
  NameTableWriter names(s.layout != nullptr ? 2 * s.layout->flat().size()
                                            : s.routing.nets.size());
  if (s.layout != nullptr) {
    const ReferencedCells cells = referenced_cells(s.layout->flat());
    encode_library(cells.lib, w);
    table_at = w.length();
    encode_flat(s.layout->flat(), cells, names, w);
    encode_floorplan(s.layout->floorplan(), names, w);
    encode_placement(s.layout->placement(), names, w);
  }
  encode_routing_estimate(s.routing, names, w);
  encode_maze_result(s.detailed_routing, names, w);
  encode_drc(s.drc, w);
  encode_layout_stats(s.stats, w);
  names.insert(w, table_at);
}

std::shared_ptr<const synth::SynthesisResult> decode_synthesis_artifact(
    serde::Reader& r) {
  auto s = std::make_shared<synth::SynthesisResult>();
  s->floorplan_spec = r.str();
  if (!r.boolean() || !r.ok()) return nullptr;
  auto lib = decode_library(r);
  if (lib == nullptr) return nullptr;
  NameTable names;
  if (!names.read(r)) return nullptr;
  std::vector<FlatInstance> flat;
  if (!decode_flat(r, *lib, names, flat)) return nullptr;
  synth::Floorplan fp;
  if (!decode_floorplan(r, names, fp)) return nullptr;
  synth::Placement pl;
  if (!decode_placement(r, names, pl)) return nullptr;
  s->layout = std::make_unique<synth::Layout>(std::move(flat), std::move(fp),
                                              std::move(pl));
  if (!decode_routing_estimate(r, names, s->routing)) return nullptr;
  if (!decode_maze_result(r, names, s->detailed_routing)) return nullptr;
  if (!decode_drc(r, s->drc)) return nullptr;
  s->stats = decode_layout_stats(r);
  if (!r.ok() || !r.at_end()) return nullptr;
  s->owner = std::shared_ptr<const void>(lib);
  return s;
}

// run_result v2 stores three per-sample arrays compactly when the rest of
// the record rebuilds them bit for bit, and explicitly (as v1 did)
// otherwise, so the codec stays lossless for any RunResult. A byte ahead
// of each array says which: a flag for `counts` and `freq_hz`, the slice
// count (0 = written out) for `output`.

/// The slice counts a derived `output` may name (one SliceBits word).
constexpr int kMaxDerivedSlices = 64;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The modulator's output sample for `count` set slice bits of
/// `n_slices`: the expression of modulator.cpp and batched_lockstep.h.
/// The encoder checks every sample against it, so a modulator that
/// computed it differently would only cost the compact form.
double output_sample(int count, int n_slices) {
  return (2.0 * count - n_slices) / static_cast<double>(n_slices);
}

/// output_sample for every count a byte holds.
std::array<double, 256> output_table(int n_slices) {
  std::array<double, 256> t{};
  for (int c = 0; c < 256; ++c) t[c] = output_sample(c, n_slices);
  return t;
}

/// The slice count N in 1..64 for which every `output` sample is
/// output_sample(count, N) bit for bit; 0 when there is none. Counts must
/// fit a byte.
int derived_slices(const msim::ModulatorResult& mod) {
  const std::vector<int>& counts = mod.counts;
  if (mod.output.size() != counts.size()) return 0;
  // Count 0 maps to -1 under every N, so the first other count pins the
  // only candidate (N = 1 serves when there is none).
  std::size_t i = 0;
  while (i < counts.size() && counts[i] == 0) ++i;
  int n_slices = 1;
  if (i < counts.size()) {
    while (n_slices <= kMaxDerivedSlices &&
           !same_bits(mod.output[i], output_sample(counts[i], n_slices))) {
      ++n_slices;
    }
    if (n_slices > kMaxDerivedSlices) return 0;
  }
  const std::array<double, 256> table = output_table(n_slices);
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (!same_bits(mod.output[k], table[counts[k]])) return 0;
  }
  return n_slices;
}

// Each slice's bit stream is stored as its bit count and then the bits
// eight to a byte, bit j in byte j / 8 at bit j % 8, the last byte's unused
// high bits zero. libstdc++ keeps a vector<bool> in unsigned long words with
// bit j at bit j % 64 of word j / 64, so on a little-endian host those words
// already are that byte stream and one memcpy moves a slice; elsewhere the
// bits move one at a time.
#if defined(__GLIBCXX__) && !defined(_GLIBCXX_DEBUG)
constexpr bool kWordBits = serde::kNativeLittleEndian;
#else
constexpr bool kWordBits = false;
#endif

/// Writes `bits` into the (bits.size() + 7) / 8 zeroed bytes at `out`.
void pack_bits(const std::vector<bool>& bits, std::uint8_t* out) {
  const std::size_t n = bits.size();
  if (n == 0) return;
  if constexpr (kWordBits) {
    std::memcpy(out, bits.begin()._M_p, (n + 7) / 8);
    // Bits past the end of a vector<bool> are unspecified.
    if (n % 8 != 0) {
      out[n / 8] &= static_cast<std::uint8_t>((1u << n % 8) - 1);
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      out[j / 8] = static_cast<std::uint8_t>(out[j / 8] | bits[j] << j % 8);
    }
  }
}

/// The `n` bits packed at `in` (pack_bits' layout).
std::vector<bool> unpack_bits(const std::uint8_t* in, std::size_t n) {
  std::vector<bool> bits(n);
  if (n == 0) return bits;
  if constexpr (kWordBits) {
    // bits(n) zeroed every word; the stored high bits of the last byte are
    // cleared again, so the words past n stay zero.
    std::memcpy(bits.begin()._M_p, in, (n + 7) / 8);
    if (n % 8 != 0) {
      bits.begin()._M_p[(n - 1) / 64] &= ~0UL >> (63 - (n - 1) % 64);
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      bits[j] = ((in[j / 8] >> j % 8) & 1) != 0;
    }
  }
  return bits;
}

/// True when every frequency bin is bin_hz * k bit for bit
/// (dsp::compute_spectrum) and there is one per power bin.
bool freq_is_derived(const dsp::Spectrum& s) {
  if (s.freq_hz.size() != s.power.size()) return false;
  for (std::size_t k = 0; k < s.freq_hz.size(); ++k) {
    if (!same_bits(s.freq_hz[k], s.bin_hz * static_cast<double>(k))) {
      return false;
    }
  }
  return true;
}

void encode_run_result(const RunResult& res, serde::Writer& w) {
  w.f64(res.fin_hz);
  w.f64(res.amplitude_v);
  w.f64(res.full_scale_v);
  const bool byte_counts =
      std::all_of(res.mod.counts.begin(), res.mod.counts.end(),
                  [](int c) { return c >= 0 && c <= 255; });
  w.boolean(byte_counts);
  if (byte_counts) {
    w.u8s(res.mod.counts);
  } else {
    w.size(res.mod.counts.size());
    for (const int v : res.mod.counts) w.i64(v);
  }
  const int n_slices = byte_counts ? derived_slices(res.mod) : 0;
  w.u8(static_cast<std::uint8_t>(n_slices));
  if (n_slices == 0) w.f64s(res.mod.output);
  w.size(res.mod.slice_bits.size());
  for (const std::vector<bool>& bits : res.mod.slice_bits) {
    w.size(bits.size());
    pack_bits(bits, w.raw((bits.size() + 7) / 8));
  }
  w.f64(res.mod.mean_vctrlp);
  w.f64(res.mod.mean_vctrln);
  w.f64(res.mod.mean_freq1_hz);
  w.f64(res.mod.mean_freq2_hz);
  w.f64(res.mod.bit_toggle_rate);
  w.f64s(res.spectrum.power);
  w.f64s(res.spectrum.dbfs);
  w.f64(res.spectrum.fs_hz);
  w.f64(res.spectrum.bin_hz);
  w.f64(res.spectrum.enbw_bins);
  w.u8(static_cast<std::uint8_t>(res.spectrum.window));
  const bool derived_freq = freq_is_derived(res.spectrum);
  w.boolean(derived_freq);
  if (!derived_freq) w.f64s(res.spectrum.freq_hz);
  w.f64(res.sndr.fundamental_hz);
  w.f64(res.sndr.fundamental_dbfs);
  w.f64(res.sndr.signal_power);
  w.f64(res.sndr.nad_power);
  w.f64(res.sndr.noise_power);
  w.f64(res.sndr.distortion_power);
  w.f64(res.sndr.sndr_db);
  w.f64(res.sndr.snr_db);
  w.f64(res.sndr.thd_db);
  w.f64(res.sndr.sfdr_db);
  w.f64(res.sndr.enob);
  w.f64(res.shaping.db_per_decade);
  w.f64(res.shaping.r_squared);
  w.size(res.idle_tones.size());
  for (const dsp::IdleTone& t : res.idle_tones) {
    w.f64(t.freq_hz);
    w.f64(t.dbfs);
    w.f64(t.above_floor_db);
  }
  w.f64(res.power.vco_w);
  w.f64(res.power.sampling_w);
  w.f64(res.power.dac_drive_w);
  w.f64(res.power.buffer_sw_w);
  w.f64(res.power.wire_w);
  w.f64(res.power.leakage_w);
  w.f64(res.power.dac_static_w);
  w.f64(res.power.buffer_bias_w);
  w.f64(res.fom_fj);
}

std::shared_ptr<const RunResult> decode_run_result(serde::Reader& r) {
  auto res = std::make_shared<RunResult>();
  res->fin_hz = r.f64();
  res->amplitude_v = r.f64();
  res->full_scale_v = r.f64();
  const bool byte_counts = r.boolean();
  if (byte_counts) {
    r.u8s(res->mod.counts);
  } else {
    const std::size_t n = r.size();
    res->mod.counts.reserve(n);
    for (std::size_t i = 0; i < n && r.ok(); ++i) {
      res->mod.counts.push_back(static_cast<int>(r.i64()));
    }
  }
  const int n_slices = r.u8();
  if (n_slices == 0) {
    r.f64s(res->mod.output);
  } else {
    if (!byte_counts || n_slices > kMaxDerivedSlices) return nullptr;
    const std::array<double, 256> table = output_table(n_slices);
    const std::vector<int>& counts = res->mod.counts;
    res->mod.output.resize(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
      res->mod.output[i] = table[static_cast<std::size_t>(counts[i])];
    }
  }
  {
    const std::size_t nslices = r.size();
    res->mod.slice_bits.reserve(nslices);
    for (std::size_t i = 0; i < nslices && r.ok(); ++i) {
      // size() bounds the bit count by the bytes left, so the byte count
      // cannot overflow; raw() then checks the bytes themselves.
      const std::size_t nbits = r.size();
      const std::uint8_t* packed = r.raw((nbits + 7) / 8);
      if (!r.ok()) return nullptr;
      res->mod.slice_bits.push_back(unpack_bits(packed, nbits));
    }
  }
  res->mod.mean_vctrlp = r.f64();
  res->mod.mean_vctrln = r.f64();
  res->mod.mean_freq1_hz = r.f64();
  res->mod.mean_freq2_hz = r.f64();
  res->mod.bit_toggle_rate = r.f64();
  r.f64s(res->spectrum.power);
  r.f64s(res->spectrum.dbfs);
  res->spectrum.fs_hz = r.f64();
  res->spectrum.bin_hz = r.f64();
  res->spectrum.enbw_bins = r.f64();
  res->spectrum.window = static_cast<dsp::WindowKind>(r.u8());
  if (r.boolean()) {
    std::vector<double>& freq = res->spectrum.freq_hz;
    freq.resize(res->spectrum.power.size());
    for (std::size_t k = 0; k < freq.size(); ++k) {
      freq[k] = res->spectrum.bin_hz * static_cast<double>(k);
    }
  } else {
    r.f64s(res->spectrum.freq_hz);
  }
  res->sndr.fundamental_hz = r.f64();
  res->sndr.fundamental_dbfs = r.f64();
  res->sndr.signal_power = r.f64();
  res->sndr.nad_power = r.f64();
  res->sndr.noise_power = r.f64();
  res->sndr.distortion_power = r.f64();
  res->sndr.sndr_db = r.f64();
  res->sndr.snr_db = r.f64();
  res->sndr.thd_db = r.f64();
  res->sndr.sfdr_db = r.f64();
  res->sndr.enob = r.f64();
  res->shaping.db_per_decade = r.f64();
  res->shaping.r_squared = r.f64();
  {
    const std::size_t n = r.size();
    res->idle_tones.reserve(n);
    for (std::size_t i = 0; i < n && r.ok(); ++i) {
      dsp::IdleTone t;
      t.freq_hz = r.f64();
      t.dbfs = r.f64();
      t.above_floor_db = r.f64();
      res->idle_tones.push_back(t);
    }
  }
  res->power.vco_w = r.f64();
  res->power.sampling_w = r.f64();
  res->power.dac_drive_w = r.f64();
  res->power.buffer_sw_w = r.f64();
  res->power.wire_w = r.f64();
  res->power.leakage_w = r.f64();
  res->power.dac_static_w = r.f64();
  res->power.buffer_bias_w = r.f64();
  res->fom_fj = r.f64();
  if (!r.ok() || !r.at_end()) return nullptr;
  return res;
}

void encode_hdl_emit_artifact(const HdlEmitResult& a, serde::Writer& w) {
  // The emitted text is the payload of record; the parsed view is derived
  // from it on decode and never serialized (so text and structure cannot
  // drift on disk).
  w.str(a.verilog);
  w.str(a.top);
  w.i64(a.instances_compared);
  w.boolean(a.lib != nullptr);
  if (a.lib != nullptr) encode_library(*a.lib, w);
}

std::shared_ptr<const HdlEmitResult> decode_hdl_emit_artifact(
    serde::Reader& r) {
  auto a = std::make_shared<HdlEmitResult>();
  a->verilog = r.str();
  a->top = r.str();
  a->instances_compared = static_cast<int>(r.i64());
  if (!r.boolean() || !r.ok()) return nullptr;
  auto lib = decode_library(r);
  if (lib == nullptr || !r.ok() || !r.at_end()) return nullptr;
  auto parsed = std::make_shared<netlist::Design>(lib.get());
  const netlist::ParseResult pr = netlist::parse_verilog(a->verilog, *parsed);
  if (!pr.ok) return nullptr;  // corrupt-miss: stored text must re-parse
  parsed->set_top(a->top);
  if (parsed->find_module(a->top) == nullptr) return nullptr;
  a->lib = std::move(lib);
  a->parsed = std::move(parsed);
  return a;
}

void encode_gate_sim_artifact(const GateSimResult& g, serde::Writer& w) {
  w.boolean(g.comparator_ok);
  w.f64(g.ring_period_s);
  w.f64(g.ring_period_pred_s);
  w.boolean(g.ring_ok);
  w.size(g.n_samples);
  w.i64(g.num_slices);
  w.f64s(g.decoded);
  w.f64s(g.decimated);
  w.boolean(g.matches_behavioral);
  w.u64(g.transitions);
}

std::shared_ptr<const GateSimResult> decode_gate_sim_artifact(
    serde::Reader& r) {
  auto g = std::make_shared<GateSimResult>();
  g->comparator_ok = r.boolean();
  g->ring_period_s = r.f64();
  g->ring_period_pred_s = r.f64();
  g->ring_ok = r.boolean();
  g->n_samples = r.u64();
  g->num_slices = static_cast<int>(r.i64());
  r.f64s(g->decoded);
  r.f64s(g->decimated);
  g->matches_behavioral = r.boolean();
  g->transitions = r.u64();
  if (!r.ok() || !r.at_end()) return nullptr;
  return g;
}

void encode_timing_artifact(const synth::TimingReport& t, serde::Writer& w) {
  w.f64(t.critical_delay_s);
  w.size(t.critical_path.size());
  for (const synth::TimingPathStep& step : t.critical_path) {
    w.str(step.through_gate);
    w.str(step.to_net);
    w.f64(step.arc_delay_s);
    w.f64(step.arrival_s);
  }
  w.f64(t.clock_period_s);
  w.f64(t.slack_s);
  w.f64(t.max_clock_hz);
  w.i64(t.loops_cut);
  w.i64(t.num_gates);
  w.i64(t.num_arcs);
}

std::shared_ptr<const synth::TimingReport> decode_timing_artifact(
    serde::Reader& r) {
  auto t = std::make_shared<synth::TimingReport>();
  t->critical_delay_s = r.f64();
  const std::size_t n = r.size();
  t->critical_path.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    synth::TimingPathStep step;
    step.through_gate = r.str();
    step.to_net = r.str();
    step.arc_delay_s = r.f64();
    step.arrival_s = r.f64();
    t->critical_path.push_back(std::move(step));
  }
  t->clock_period_s = r.f64();
  t->slack_s = r.f64();
  t->max_clock_hz = r.f64();
  t->loops_cut = static_cast<int>(r.i64());
  t->num_gates = static_cast<int>(r.i64());
  t->num_arcs = static_cast<int>(r.i64());
  if (!r.ok() || !r.at_end()) return nullptr;
  return t;
}

void encode_power_grid_artifact(const synth::PowerGridCheck& c,
                                serde::Writer& w) {
  w.i64(c.cells_checked);
  w.i64(c.unconnected_cells);
  w.i64(c.wrong_rail_cells);
  w.f64(c.max_ir_drop_v);
  w.str(c.worst_rail);
  w.size(c.problems.size());
  for (const std::string& p : c.problems) w.str(p);
}

std::shared_ptr<const synth::PowerGridCheck> decode_power_grid_artifact(
    serde::Reader& r) {
  auto c = std::make_shared<synth::PowerGridCheck>();
  c->cells_checked = static_cast<int>(r.i64());
  c->unconnected_cells = static_cast<int>(r.i64());
  c->wrong_rail_cells = static_cast<int>(r.i64());
  c->max_ir_drop_v = r.f64();
  c->worst_rail = r.str();
  const std::size_t n = r.size();
  c->problems.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) c->problems.push_back(r.str());
  if (!r.ok() || !r.at_end()) return nullptr;
  return c;
}

}  // namespace

const ArtifactCodec<CellLibrary>& cell_library_codec() {
  static const ArtifactCodec<CellLibrary> codec{
      "cell_library", 1, &encode_cell_library, &decode_cell_library};
  return codec;
}

const ArtifactCodec<DesignBundle>& design_bundle_codec() {
  static const ArtifactCodec<DesignBundle> codec{
      "design_bundle", 2, &encode_design_bundle, &decode_design_bundle};
  return codec;
}

const ArtifactCodec<synth::FloorplanStageResult>& floorplan_codec() {
  static const ArtifactCodec<synth::FloorplanStageResult> codec{
      "floorplan", 2, &encode_floorplan_artifact, &decode_floorplan_artifact};
  return codec;
}

const ArtifactCodec<synth::Placement>& placement_codec() {
  static const ArtifactCodec<synth::Placement> codec{
      "placement", 1, &encode_placement_artifact, &decode_placement_artifact};
  return codec;
}

const ArtifactCodec<synth::SynthesisResult>& synthesis_codec() {
  static const ArtifactCodec<synth::SynthesisResult> codec{
      "synthesis", 2, &encode_synthesis_artifact, &decode_synthesis_artifact};
  return codec;
}

const ArtifactCodec<RunResult>& run_result_codec() {
  static const ArtifactCodec<RunResult> codec{
      "run_result", 2, &encode_run_result, &decode_run_result};
  return codec;
}

const ArtifactCodec<HdlEmitResult>& hdl_emit_codec() {
  static const ArtifactCodec<HdlEmitResult> codec{
      "hdl_emit", 1, &encode_hdl_emit_artifact, &decode_hdl_emit_artifact};
  return codec;
}

const ArtifactCodec<GateSimResult>& gate_sim_codec() {
  static const ArtifactCodec<GateSimResult> codec{
      "gate_sim", 1, &encode_gate_sim_artifact, &decode_gate_sim_artifact};
  return codec;
}

const ArtifactCodec<synth::TimingReport>& timing_codec() {
  static const ArtifactCodec<synth::TimingReport> codec{
      "timing", 1, &encode_timing_artifact, &decode_timing_artifact};
  return codec;
}

const ArtifactCodec<synth::PowerGridCheck>& power_grid_codec() {
  static const ArtifactCodec<synth::PowerGridCheck> codec{
      "power_grid", 1, &encode_power_grid_artifact,
      &decode_power_grid_artifact};
  return codec;
}

}  // namespace vcoadc::core
