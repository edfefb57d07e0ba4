#include "regcube/io/cube_io.h"

#include "regcube/common/str.h"
#include "regcube/io/binary_io.h"

namespace regcube {
namespace {

constexpr std::uint32_t kTuplesMagic = 0x31544752;  // "RGT1"
constexpr std::uint32_t kCubeMagic = 0x31434752;    // "RGC1"

/// Rejects element counts that cannot possibly fit in the remaining input
/// (corrupt data must not drive a giant reserve()).
Status CheckCount(const ByteReader& r, std::uint64_t count,
                  std::size_t min_bytes_per_element) {
  if (count > r.remaining() / min_bytes_per_element + 1) {
    return Status::InvalidArgument(StrPrintf(
        "element count %llu exceeds what %zu remaining bytes can hold",
        static_cast<unsigned long long>(count), r.remaining()));
  }
  return Status::OK();
}

void EncodeInterval(ByteWriter* w, const TimeInterval& iv) {
  w->WriteI64(iv.tb);
  w->WriteI64(iv.te);
}

Result<TimeInterval> DecodeInterval(ByteReader* r) {
  TimeInterval iv;
  RC_ASSIGN_OR_RETURN(iv.tb, r->ReadI64());
  RC_ASSIGN_OR_RETURN(iv.te, r->ReadI64());
  return iv;
}

void EncodeIsb(ByteWriter* w, const Isb& isb) {
  EncodeInterval(w, isb.interval);
  w->WriteDouble(isb.base);
  w->WriteDouble(isb.slope);
}

Result<Isb> DecodeIsb(ByteReader* r) {
  Isb isb;
  RC_ASSIGN_OR_RETURN(isb.interval, DecodeInterval(r));
  RC_ASSIGN_OR_RETURN(isb.base, r->ReadDouble());
  RC_ASSIGN_OR_RETURN(isb.slope, r->ReadDouble());
  return isb;
}

void EncodeCellMap(ByteWriter* w, const CellMap& cells) {
  w->WriteU64(cells.size());
  for (const auto& [key, isb] : cells) {
    EncodeCellKey(w, key);
    EncodeIsb(w, isb);
  }
}

Result<CellMap> DecodeCellMap(ByteReader* r, int expected_dims) {
  RC_ASSIGN_OR_RETURN(std::uint64_t count, r->ReadU64());
  RC_RETURN_IF_ERROR(CheckCount(*r, count, 1 + 32));
  CellMap cells;
  cells.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    RC_ASSIGN_OR_RETURN(CellKey key, DecodeCellKey(r));
    if (key.num_dims() != expected_dims) {
      return Status::InvalidArgument(StrPrintf(
          "cell key has %d dims, schema has %d", key.num_dims(),
          expected_dims));
    }
    RC_ASSIGN_OR_RETURN(Isb isb, DecodeIsb(r));
    // A valid encoding never repeats a key; a duplicate means a corrupted
    // key byte collided with another cell — reject instead of silently
    // merging into a smaller map.
    if (!cells.emplace(key, isb).second) {
      return Status::InvalidArgument(
          StrPrintf("duplicate cell key %s", key.ToString().c_str()));
    }
  }
  return cells;
}

Status ExpectMagic(ByteReader* r, std::uint32_t magic, const char* what) {
  auto got = r->ReadU32();
  if (!got.ok()) return got.status();
  if (*got != magic) {
    return Status::InvalidArgument(
        StrPrintf("bad magic for %s: got 0x%08x", what, *got));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeMLayerTuples(const std::vector<MLayerTuple>& tuples) {
  ByteWriter w;
  w.WriteU32(kTuplesMagic);
  w.WriteU64(tuples.size());
  for (const MLayerTuple& t : tuples) {
    EncodeCellKey(&w, t.key);
    EncodeIsb(&w, t.measure);
  }
  return w.Release();
}

Result<std::vector<MLayerTuple>> DecodeMLayerTuples(std::string_view data) {
  ByteReader r(data);
  RC_RETURN_IF_ERROR(ExpectMagic(&r, kTuplesMagic, "m-layer tuples"));
  RC_ASSIGN_OR_RETURN(std::uint64_t count, r.ReadU64());
  RC_RETURN_IF_ERROR(CheckCount(r, count, 1 + 32));
  std::vector<MLayerTuple> tuples;
  tuples.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    MLayerTuple t;
    RC_ASSIGN_OR_RETURN(t.key, DecodeCellKey(&r));
    RC_ASSIGN_OR_RETURN(t.measure, DecodeIsb(&r));
    tuples.push_back(std::move(t));
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("trailing bytes after m-layer tuples");
  }
  return tuples;
}

std::string EncodeRegressionCube(const RegressionCube& cube) {
  ByteWriter w;
  w.WriteU32(kCubeMagic);
  w.WriteU8(static_cast<std::uint8_t>(cube.schema().num_dims()));
  EncodeCellMap(&w, cube.m_layer());
  EncodeCellMap(&w, cube.o_layer());
  const std::vector<CuboidId> cuboids = cube.exceptions().Cuboids();
  w.WriteU32(static_cast<std::uint32_t>(cuboids.size()));
  for (CuboidId c : cuboids) {
    w.WriteU32(static_cast<std::uint32_t>(c));
    EncodeCellMap(&w, *cube.exceptions().CellsOf(c));
  }
  return w.Release();
}

Result<RegressionCube> DecodeRegressionCube(
    std::shared_ptr<const CubeSchema> schema, std::string_view data) {
  if (schema == nullptr) {
    return Status::InvalidArgument("schema must be provided");
  }
  ByteReader r(data);
  RC_RETURN_IF_ERROR(ExpectMagic(&r, kCubeMagic, "regression cube"));
  RC_ASSIGN_OR_RETURN(std::uint8_t dims, r.ReadU8());
  if (dims != schema->num_dims()) {
    return Status::InvalidArgument(
        StrPrintf("cube encoded with %u dims, schema has %d", dims,
                  schema->num_dims()));
  }
  RegressionCube cube(schema);
  RC_ASSIGN_OR_RETURN(cube.mutable_m_layer(),
                      DecodeCellMap(&r, schema->num_dims()));
  RC_ASSIGN_OR_RETURN(cube.mutable_o_layer(),
                      DecodeCellMap(&r, schema->num_dims()));
  RC_ASSIGN_OR_RETURN(std::uint32_t num_cuboids, r.ReadU32());
  for (std::uint32_t i = 0; i < num_cuboids; ++i) {
    RC_ASSIGN_OR_RETURN(std::uint32_t cuboid, r.ReadU32());
    if (static_cast<std::int64_t>(cuboid) >= cube.lattice().num_cuboids()) {
      return Status::InvalidArgument(
          StrPrintf("cuboid id %u outside the schema's lattice", cuboid));
    }
    RC_ASSIGN_OR_RETURN(CellMap cells, DecodeCellMap(&r, schema->num_dims()));
    cube.mutable_exceptions().InsertAll(static_cast<CuboidId>(cuboid), cells);
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("trailing bytes after regression cube");
  }
  return cube;
}

void EncodeCellKey(ByteWriter* w, const CellKey& key) {
  w->WriteU8(static_cast<std::uint8_t>(key.num_dims()));
  for (int d = 0; d < key.num_dims(); ++d) w->WriteU32(key[d]);
}

Result<CellKey> DecodeCellKey(ByteReader* r) {
  RC_ASSIGN_OR_RETURN(std::uint8_t dims, r->ReadU8());
  if (dims > kMaxDims) {
    return Status::InvalidArgument(
        StrPrintf("cell key with %u dimensions (max %d)", dims, kMaxDims));
  }
  CellKey key(dims);
  for (int d = 0; d < dims; ++d) {
    RC_ASSIGN_OR_RETURN(std::uint32_t v, r->ReadU32());
    key.set(d, v);
  }
  return key;
}

}  // namespace regcube
