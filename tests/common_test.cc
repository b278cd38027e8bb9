// Unit tests for src/common: bit utilities, Result/Status, hashing, RNG, histogram,
// state streams.

#include <gtest/gtest.h>

#include "src/common/bits.h"
#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/state.h"

namespace vfm {
namespace {

TEST(BitsTest, MaskLow) {
  EXPECT_EQ(MaskLow(0), 0u);
  EXPECT_EQ(MaskLow(1), 1u);
  EXPECT_EQ(MaskLow(12), 0xFFFu);
  EXPECT_EQ(MaskLow(63), 0x7FFFFFFFFFFFFFFFull);
  EXPECT_EQ(MaskLow(64), ~uint64_t{0});
}

TEST(BitsTest, MaskRange) {
  EXPECT_EQ(MaskRange(3, 0), 0xFu);
  EXPECT_EQ(MaskRange(12, 11), 0x1800u);
  EXPECT_EQ(MaskRange(63, 63), uint64_t{1} << 63);
  EXPECT_EQ(MaskRange(7, 4), 0xF0u);
}

TEST(BitsTest, Bit) {
  EXPECT_EQ(Bit(0b1010, 1), 1u);
  EXPECT_EQ(Bit(0b1010, 0), 0u);
  EXPECT_EQ(Bit(uint64_t{1} << 63, 63), 1u);
}

TEST(BitsTest, ExtractInsertRoundTrip) {
  const uint64_t value = 0xDEADBEEFCAFEBABEull;
  for (unsigned lo = 0; lo < 60; lo += 7) {
    const unsigned hi = lo + 4;
    const uint64_t field = ExtractBits(value, hi, lo);
    EXPECT_EQ(ExtractBits(InsertBits(0, hi, lo, field), hi, lo), field);
    EXPECT_EQ(InsertBits(value, hi, lo, field), value);  // reinsert is identity
  }
}

TEST(BitsTest, InsertBitsMasksField) {
  // Bits of `field` above the range width must not leak.
  EXPECT_EQ(InsertBits(0, 3, 0, 0xFF), 0xFu);
}

TEST(BitsTest, SetBit) {
  EXPECT_EQ(SetBit(0, 5, 1), 32u);
  EXPECT_EQ(SetBit(0xFF, 0, 0), 0xFEu);
  EXPECT_EQ(SetBit(0, 63, 1), uint64_t{1} << 63);
}

TEST(BitsTest, SignExtend) {
  EXPECT_EQ(SignExtend(0xFFF, 12), ~uint64_t{0});
  EXPECT_EQ(SignExtend(0x7FF, 12), 0x7FFu);
  EXPECT_EQ(SignExtend(0x800, 12), 0xFFFFFFFFFFFFF800ull);
  EXPECT_EQ(SignExtend(0x80000000, 32), 0xFFFFFFFF80000000ull);
  EXPECT_EQ(SignExtend(0x7FFFFFFF, 32), 0x7FFFFFFFu);
}

TEST(BitsTest, Alignment) {
  EXPECT_TRUE(IsAligned(0x1000, 0x1000));
  EXPECT_FALSE(IsAligned(0x1001, 2));
  EXPECT_EQ(AlignUp(5, 8), 8u);
  EXPECT_EQ(AlignUp(8, 8), 8u);
  EXPECT_EQ(AlignDown(15, 8), 8u);
  EXPECT_EQ(AlignDown(16, 8), 16u);
}

TEST(BitsTest, PowerOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(uint64_t{1} << 55));
  EXPECT_FALSE(IsPowerOfTwo(6));
}

TEST(BitsTest, CountTrailingOnes) {
  EXPECT_EQ(CountTrailingOnes(0), 0u);
  EXPECT_EQ(CountTrailingOnes(0b0111), 3u);
  EXPECT_EQ(CountTrailingOnes(0b1011), 2u);
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err = Result<int>::Error("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error(), "boom");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string(100, 'x'));
  const std::string moved = std::move(r).value();
  EXPECT_EQ(moved.size(), 100u);
}

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status err = Status::Error("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error(), "nope");
}

TEST(HashTest, Sha256KnownVectors) {
  // NIST test vectors.
  EXPECT_EQ(Sha256::ToHex(Sha256::Digest("", 0)),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256::ToHex(Sha256::Digest("abc", 3)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  const char* msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(Sha256::ToHex(Sha256::Digest(msg, 56)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(HashTest, Sha256Incremental) {
  Sha256 h;
  h.Update("ab", 2);
  h.Update("c", 1);
  EXPECT_EQ(Sha256::ToHex(h.Finish()), Sha256::ToHex(Sha256::Digest("abc", 3)));
}

TEST(HashTest, Sha256LongInput) {
  const std::string big(1'000'000, 'a');
  EXPECT_EQ(Sha256::ToHex(Sha256::Digest(big.data(), big.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(HashTest, Fnv1aDistinct) {
  EXPECT_NE(Fnv1a64("a", 1), Fnv1a64("b", 1));
  EXPECT_EQ(Fnv1a64("hello", 5), Fnv1a64("hello", 5));
}

TEST(HashTest, Fnv1aStandardVectors) {
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar", 6), 0x85944171f73967e8ull);
}

TEST(HashTest, Fnv1aSeedContinuesStream) {
  EXPECT_EQ(Fnv1a64("bar", 3, Fnv1a64("foo", 3)), Fnv1a64("foobar", 6));
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    const uint64_t v = rng.NextInRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, AdversarialCoversExtremes) {
  Rng rng(3);
  bool saw_zero = false;
  bool saw_ones = false;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextAdversarial();
    saw_zero = saw_zero || v == 0;
    saw_ones = saw_ones || v == ~uint64_t{0};
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_ones);
}

TEST(HistogramTest, Percentiles) {
  Histogram h;
  for (uint64_t i = 1; i <= 100; ++i) {
    h.Record(i);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 50.0, 1.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(99)), 99.0, 1.0);
  EXPECT_EQ(h.Percentile(100), 100u);
  EXPECT_EQ(h.Percentile(0), 1u);
  EXPECT_NEAR(h.Mean(), 50.5, 0.01);
}

TEST(HistogramTest, RecordAfterQueryResorts) {
  Histogram h;
  h.Record(10);
  EXPECT_EQ(h.max(), 10u);
  h.Record(5);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 10u);
}

TEST(HistogramTest, DistributionReportShape) {
  Histogram h;
  for (int i = 0; i < 10; ++i) {
    h.Record(i);
  }
  const auto report = h.DistributionReport();
  ASSERT_EQ(report.size(), 7u);
  EXPECT_EQ(report.front().first, 50.0);
  EXPECT_EQ(report.back().first, 100.0);
  EXPECT_EQ(report.back().second, 9u);
}

// An empty blob reads into an empty vector, whose data() is null: the reader must
// not hand that pointer to memcpy (UBSan flags it even for size 0).
TEST(StateTest, EmptyBlobsRoundTrip) {
  StateWriter writer;
  const uint8_t unused = 0;
  writer.Bytes(&unused, 0);
  writer.Str("");
  writer.U8(0x5A);
  StateReader reader(writer.bytes());
  std::vector<uint8_t> blob{1, 2, 3};
  reader.Bytes(&blob);
  EXPECT_TRUE(blob.empty());
  EXPECT_EQ(reader.Str(), "");
  EXPECT_EQ(reader.U8(), 0x5A);
  EXPECT_TRUE(reader.ok()) << reader.error();
}

}  // namespace
}  // namespace vfm
