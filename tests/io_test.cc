#include "regcube/io/cube_io.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "regcube/core/mo_cubing.h"
#include "regcube/io/binary_io.h"
#include "test_util.h"

namespace regcube {
namespace {

using testing_util::ExpectCellMapsEqual;
using testing_util::ExpectIsbNear;
using testing_util::MakeSmallWorkload;
using testing_util::RecordOf;
using testing_util::SmallWorkload;

TEST(ByteIoTest, PrimitiveRoundTrips) {
  ByteWriter w;
  w.WriteU8(7);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFULL);
  w.WriteI64(-42);
  w.WriteDouble(3.14159);
  w.WriteString("hello");

  ByteReader r(w.buffer());
  EXPECT_EQ(*r.ReadU8(), 7);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*r.ReadI64(), -42);
  EXPECT_DOUBLE_EQ(*r.ReadDouble(), 3.14159);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteIoTest, TruncationDetected) {
  ByteWriter w;
  w.WriteU64(1);
  std::string data = w.Release();
  data.resize(3);  // cut mid-integer
  ByteReader r(data);
  EXPECT_EQ(r.ReadU64().status().code(), StatusCode::kOutOfRange);
}

TEST(ByteIoTest, StringLengthBoundsChecked) {
  ByteWriter w;
  w.WriteU32(1000);  // length prefix larger than the payload
  w.WriteU8('x');
  ByteReader r(w.buffer());
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(ByteIoTest, SpecialDoublesSurvive) {
  ByteWriter w;
  w.WriteDouble(0.0);
  w.WriteDouble(-0.0);
  w.WriteDouble(1e308);
  w.WriteDouble(-1e-308);
  ByteReader r(w.buffer());
  EXPECT_EQ(*r.ReadDouble(), 0.0);
  EXPECT_EQ(*r.ReadDouble(), -0.0);
  EXPECT_DOUBLE_EQ(*r.ReadDouble(), 1e308);
  EXPECT_DOUBLE_EQ(*r.ReadDouble(), -1e-308);
}

TEST(FileIoTest, WriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/regcube_io_test.bin";
  const std::string payload = "binary\0payload";
  ASSERT_TRUE(WriteFile(path, payload).ok());
  auto back = ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadFile("/nonexistent/regcube").status().code(),
            StatusCode::kNotFound);
}

TEST(TupleIoTest, RoundTrip) {
  SmallWorkload w = MakeSmallWorkload(3, 2, 3, 50, 201);
  std::string encoded = EncodeMLayerTuples(w.tuples);
  auto decoded = DecodeMLayerTuples(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), w.tuples.size());
  for (size_t i = 0; i < w.tuples.size(); ++i) {
    EXPECT_EQ((*decoded)[i].key, w.tuples[i].key);
    ExpectIsbNear(w.tuples[i].measure, (*decoded)[i].measure, 0.0);
  }
}

TEST(TupleIoTest, RejectsBadMagicTruncationAndTrailingBytes) {
  SmallWorkload w = MakeSmallWorkload(2, 2, 3, 10, 203);
  std::string encoded = EncodeMLayerTuples(w.tuples);

  std::string bad_magic = encoded;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeMLayerTuples(bad_magic).ok());

  std::string truncated = encoded.substr(0, encoded.size() - 3);
  EXPECT_FALSE(DecodeMLayerTuples(truncated).ok());

  std::string trailing = encoded + "junk";
  EXPECT_FALSE(DecodeMLayerTuples(trailing).ok());
}

TEST(TupleIoTest, CorruptCountRejectedWithoutAllocating) {
  ByteWriter w;
  w.WriteU32(0x31544752);  // tuples magic
  w.WriteU64(std::uint64_t{1} << 60);  // absurd count
  EXPECT_FALSE(DecodeMLayerTuples(w.buffer()).ok());
}

TEST(CubeIoTest, FullCubeRoundTrip) {
  SmallWorkload w = MakeSmallWorkload(3, 2, 3, 80, 207);
  MoCubingOptions options;
  options.policy = ExceptionPolicy(0.02);
  auto cube = ComputeMoCubing(w.schema, w.tuples, options);
  ASSERT_TRUE(cube.ok());

  std::string encoded = EncodeRegressionCube(*cube);
  auto decoded = DecodeRegressionCube(w.schema, encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  ExpectCellMapsEqual(cube->m_layer(), decoded->m_layer(), 0.0);
  ExpectCellMapsEqual(cube->o_layer(), decoded->o_layer(), 0.0);
  EXPECT_EQ(cube->exceptions().total_cells(),
            decoded->exceptions().total_cells());
  for (CuboidId c : cube->exceptions().Cuboids()) {
    const CellMap* original = cube->exceptions().CellsOf(c);
    const CellMap* restored = decoded->exceptions().CellsOf(c);
    ASSERT_NE(restored, nullptr);
    ExpectCellMapsEqual(*original, *restored, 0.0);
  }
}

TEST(CubeIoTest, SchemaMismatchRejected) {
  SmallWorkload w2 = MakeSmallWorkload(2, 2, 3, 20, 211);
  SmallWorkload w3 = MakeSmallWorkload(3, 2, 3, 20, 211);
  MoCubingOptions options;
  auto cube = ComputeMoCubing(w2.schema, w2.tuples, options);
  ASSERT_TRUE(cube.ok());
  std::string encoded = EncodeRegressionCube(*cube);
  // Decoding a 2-dim cube against a 3-dim schema must fail cleanly.
  EXPECT_FALSE(DecodeRegressionCube(w3.schema, encoded).ok());
  EXPECT_FALSE(DecodeRegressionCube(nullptr, encoded).ok());
}

TEST(TiltFrameIoTest, CheckpointRestoreContinuesExactly) {
  auto policy = std::shared_ptr<const TiltPolicy>(MakeUniformTiltPolicy(
      {{"quarter", 4}, {"hour", 24}}, {1, 4}));

  // Drive a frame halfway, write its record, restore, then feed both the
  // same remaining data: the two must stay bitwise identical.
  TiltTimeFrame original(policy, 0);
  for (TimeTick t = 0; t < 50; ++t) {
    ASSERT_TRUE(original.Add(t, 0.5 * static_cast<double>(t % 7)).ok());
  }

  const std::string record = RecordOf(original);
  EXPECT_EQ(record.size(), TiltTimeFrame::RecordBytesFor(*policy));
  EXPECT_EQ(record.size() % 8, 0u);
  auto restored = TiltTimeFrame::FromRecord(policy, record);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(RecordOf(*restored), record);

  for (TimeTick t = 50; t < 100; ++t) {
    const double z = 1.0 + 0.1 * static_cast<double>(t % 5);
    ASSERT_TRUE(original.Add(t, z).ok());
    ASSERT_TRUE(restored->Add(t, z).ok());
  }
  ASSERT_TRUE(original.AdvanceTo(100).ok());
  ASSERT_TRUE(restored->AdvanceTo(100).ok());

  EXPECT_EQ(RecordOf(original), RecordOf(*restored));
  EXPECT_EQ(original.RetainedSlots(), restored->RetainedSlots());
  for (int level = 0; level < policy->num_levels(); ++level) {
    auto a = original.Slots(level);
    auto b = restored->Slots(level);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) ExpectIsbNear(a[i], b[i], 0.0);
  }
  auto reg_a = original.RegressLastSlots(1, 10);
  auto reg_b = restored->RegressLastSlots(1, 10);
  ASSERT_TRUE(reg_a.ok());
  ASSERT_TRUE(reg_b.ok());
  ExpectIsbNear(*reg_a, *reg_b, 0.0);
}

TEST(TiltFrameIoTest, RestoreValidatesAgainstPolicy) {
  auto policy2 = std::shared_ptr<const TiltPolicy>(MakeUniformTiltPolicy(
      {{"a", 4}, {"b", 4}}, {1, 4}));
  auto policy3 = std::shared_ptr<const TiltPolicy>(MakeUniformTiltPolicy(
      {{"a", 4}, {"b", 4}, {"c", 4}}, {1, 4, 16}));
  auto wider = std::shared_ptr<const TiltPolicy>(MakeUniformTiltPolicy(
      {{"a", 4}, {"b", 5}}, {1, 4}));
  TiltTimeFrame frame(policy2, 0);
  ASSERT_TRUE(frame.Add(5, 1.0).ok());
  const std::string record = RecordOf(frame);
  ASSERT_TRUE(TiltTimeFrame::FromRecord(policy2, record).ok());
  // Wrong level count, or the same count with another capacity: the
  // layout fingerprint disagrees.
  EXPECT_EQ(TiltTimeFrame::FromRecord(policy3, record).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TiltTimeFrame::FromRecord(wider, record).status().code(),
            StatusCode::kInvalidArgument);
  // Wrong length: truncated, or with trailing bytes.
  EXPECT_EQ(TiltTimeFrame::FromRecord(
                policy2, std::string_view(record).substr(0, record.size() - 8))
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(TiltTimeFrame::FromRecord(policy2, record + std::string(8, '\0'))
                .status()
                .code(),
            StatusCode::kOutOfRange);
  // Bad magic (another host's byte order reads it reversed).
  std::string foreign = record;
  std::swap(foreign[0], foreign[3]);
  EXPECT_EQ(TiltTimeFrame::FromRecord(policy2, foreign).status().code(),
            StatusCode::kInvalidArgument);
  // Clock before start: next_tick is the header's last 8 bytes.
  std::string warped = record;
  const TimeTick before_start = -1;
  std::memcpy(warped.data() + TiltTimeFrame::kRecordHeaderBytes - 8,
              &before_start, sizeof(before_start));
  EXPECT_EQ(TiltTimeFrame::FromRecord(policy2, warped).status().code(),
            StatusCode::kInvalidArgument);
  // A block of 0xFF bytes: every level header is out of range.
  std::string garbled = record;
  std::memset(garbled.data() + TiltTimeFrame::kRecordHeaderBytes, 0xFF,
              garbled.size() - TiltTimeFrame::kRecordHeaderBytes);
  EXPECT_EQ(TiltTimeFrame::FromRecord(policy2, garbled).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TiltFrameIoTest, RecordSurvivesDisk) {
  auto policy = std::shared_ptr<const TiltPolicy>(MakeUniformTiltPolicy(
      {{"q", 4}}, {1}));
  TiltTimeFrame frame(policy, 10);
  for (TimeTick t = 10; t < 30; ++t) {
    ASSERT_TRUE(frame.Add(t, static_cast<double>(t)).ok());
  }
  const std::string path = ::testing::TempDir() + "/regcube_frame.bin";
  ASSERT_TRUE(WriteFile(path, RecordOf(frame)).ok());
  auto data = ReadFile(path);
  ASSERT_TRUE(data.ok());
  auto restored = TiltTimeFrame::FromRecord(policy, *data);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(RecordOf(*restored), RecordOf(frame));
  EXPECT_EQ(restored->next_tick(), frame.next_tick());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace regcube
