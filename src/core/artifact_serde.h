// Typed codecs between stage artifacts and the persistent store's
// canonical byte form (serde.h).
//
// One codec per cached stage artifact type. Each carries the type tag and
// format version that frame its records on disk (artifact_store.h): bump a
// codec's version whenever its field list or order changes and old records
// become version-skew misses instead of mis-decoding.
//
// Decoding is total: a malformed payload yields null (the flow treats it
// as a corrupt-miss and rebuilds), never UB — serde::Reader bounds every
// read, and decoders check ok() plus structural invariants (e.g. every
// name index falls inside its record's name table and every flat
// instance's cell index inside the embedded library).
//
// Pointer policy: FlatInstance::cell points into a CellLibrary, so codecs
// that carry flat instances embed the set of referenced StdCells as a
// self-contained library, store each instance's cell as an index into it,
// and re-point the decoded instances into that library (held alive via
// the artifact's `owner`). The embedded cells carry full StdCell data, so
// every field a downstream stage reads through the pointer round-trips
// bit-exactly.
#pragma once

#include <cstdint>
#include <memory>

#include "core/adc.h"
#include "core/flow.h"
#include "core/serde.h"

namespace vcoadc::core {

/// A stage-artifact codec: the on-disk identity (tag + version) plus the
/// canonical encode/decode pair.
template <typename T>
struct ArtifactCodec {
  const char* type_tag;
  std::uint32_t type_version;
  void (*encode)(const T&, serde::Writer&);
  /// Null on malformed bytes (caller treats it as a corrupt-miss).
  std::shared_ptr<const T> (*decode)(serde::Reader&);
};

const ArtifactCodec<netlist::CellLibrary>& cell_library_codec();
const ArtifactCodec<DesignBundle>& design_bundle_codec();
const ArtifactCodec<synth::FloorplanStageResult>& floorplan_codec();
const ArtifactCodec<synth::Placement>& placement_codec();
const ArtifactCodec<synth::SynthesisResult>& synthesis_codec();
/// The RunResult codec (v2) stores `mod.counts` one byte per sample and
/// leaves out `mod.output` and `spectrum.freq_hz` whenever the decoder
/// rebuilds them bit for bit (from the counts and the slice count, and
/// from `bin_hz`); any other run is written out in full.
const ArtifactCodec<RunResult>& run_result_codec();
/// The HdlEmit artifact stores the emitted Verilog *text* plus the library
/// it elaborates against; the parsed view is reconstructed by re-parsing
/// the text on decode (a text the parser refuses is a corrupt-miss), so
/// the stored bytes stay the flow's single source of truth.
const ArtifactCodec<HdlEmitResult>& hdl_emit_codec();
const ArtifactCodec<GateSimResult>& gate_sim_codec();
const ArtifactCodec<synth::TimingReport>& timing_codec();
const ArtifactCodec<synth::PowerGridCheck>& power_grid_codec();

}  // namespace vcoadc::core
