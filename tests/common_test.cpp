// Unit tests for the common utility layer: status propagation, byte/time
// formatting, RNG determinism, counters, bitmaps, and checksums.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/bitmap.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/units.hpp"

namespace nvm {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, AllErrorCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kIoError); ++c) {
    EXPECT_NE(error_code_name(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = InvalidArgument("bad");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(v.value_or(-1), -1);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgument("odd");
  return x / 2;
}

Status Chain(int x, int* out) {
  NVM_ASSIGN_OR_RETURN(int h, Half(x));
  NVM_ASSIGN_OR_RETURN(int q, Half(h));
  *out = q;
  return OkStatus();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(Chain(8, &out).ok());
  EXPECT_EQ(out, 2);
  EXPECT_EQ(Chain(6, &out).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(Chain(7, &out).code(), ErrorCode::kInvalidArgument);
}

TEST(UnitsTest, Literals) {
  EXPECT_EQ(4_KiB, 4096u);
  EXPECT_EQ(1_MiB, 1048576u);
  EXPECT_EQ(2_GiB, 2147483648u);
  EXPECT_EQ(3_us, 3000);
  EXPECT_EQ(2_ms, 2000000);
  EXPECT_EQ(1_s, 1000000000);
}

TEST(UnitsTest, CeilDivAndRoundUp) {
  EXPECT_EQ(CeilDiv(10, 4), 3u);
  EXPECT_EQ(CeilDiv(8, 4), 2u);
  EXPECT_EQ(CeilDiv(1, 4), 1u);
  EXPECT_EQ(RoundUp(10, 4), 12u);
  EXPECT_EQ(RoundUp(8, 4), 8u);
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(4_KiB), "4.0 KiB");
  EXPECT_EQ(FormatBytes(1536), "1.5 KiB");
  EXPECT_EQ(FormatBytes(3_MiB), "3.0 MiB");
}

TEST(UnitsTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(500), "500 ns");
  EXPECT_EQ(FormatDuration(1500), "1.5 us");
  EXPECT_EQ(FormatDuration(2500000), "2.50 ms");
  EXPECT_EQ(FormatDuration(3100000000LL), "3.100 s");
}

TEST(UnitsTest, Bandwidth) {
  // 1 MB in 1 ms = 1000 MB/s.
  EXPECT_NEAR(ToMBps(1000000, 1000000), 1000.0, 1e-9);
  EXPECT_EQ(ToMBps(123, 0), 0.0);
}

TEST(RngTest, Deterministic) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedStaysInRange) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const int64_t r = rng.NextInRange(-3, 3);
    EXPECT_GE(r, -3);
    EXPECT_LE(r, 3);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Xoshiro256 rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBelow(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(BitmapTest, SetClearTest) {
  Bitmap bm(130);
  EXPECT_EQ(bm.size(), 130u);
  EXPECT_TRUE(bm.None());
  bm.Set(0);
  bm.Set(64);
  bm.Set(129);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(129));
  EXPECT_FALSE(bm.Test(1));
  EXPECT_EQ(bm.PopCount(), 3u);
  bm.Clear(64);
  EXPECT_FALSE(bm.Test(64));
  EXPECT_EQ(bm.PopCount(), 2u);
}

TEST(BitmapTest, FindNextSet) {
  Bitmap bm(200);
  bm.Set(3);
  bm.Set(70);
  bm.Set(199);
  EXPECT_EQ(bm.FindNextSet(0), 3u);
  EXPECT_EQ(bm.FindNextSet(4), 70u);
  EXPECT_EQ(bm.FindNextSet(71), 199u);
  EXPECT_EQ(bm.FindNextSet(200), 200u);
}

TEST(BitmapTest, SetAllRespectsTail) {
  Bitmap bm(67);
  bm.SetAll();
  EXPECT_EQ(bm.PopCount(), 67u);
  bm.ClearAll();
  EXPECT_TRUE(bm.None());
}

TEST(BitmapTest, ForEachSetAscending) {
  Bitmap bm(500);
  std::vector<size_t> want = {1, 63, 64, 128, 499};
  for (size_t i : want) bm.Set(i);
  std::vector<size_t> got;
  bm.ForEachSet([&](size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(CounterTest, AddAndReset) {
  Counter c;
  c.Add(5);
  c.Add(7);
  EXPECT_EQ(c.value(), 12u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

// Bit-at-a-time CRC32C reference (poly 0x82f63b78, reflected, zlib-style
// pre/post inversion) to pin the slice-by-8 tables down.
uint32_t Crc32cReference(const void* data, size_t n, uint32_t seed = 0) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (0x82f63b78u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

TEST(Crc32cTest, KnownAnswerVectors) {
  // The classic check value plus the RFC 3720 appendix B.4 test patterns.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  std::vector<uint8_t> buf(32, 0x00);
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x8A9136AAu);
  buf.assign(32, 0xFF);
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x62A8AB43u);
  for (size_t i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x46DD794Eu);
}

TEST(Crc32cTest, EmptyInputIsZero) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  EXPECT_EQ(Crc32c("x", 0), 0u);
}

TEST(Crc32cTest, SeedChainsAcrossSplits) {
  // CRC of a buffer equals the CRC of its pieces chained through the seed,
  // for every split point — the property the run paths rely on.
  Xoshiro256 rng(99);
  std::vector<uint8_t> buf(253);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  const uint32_t whole = Crc32c(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); split += 13) {
    const uint32_t head = Crc32c(buf.data(), split);
    EXPECT_EQ(Crc32c(buf.data() + split, buf.size() - split, head), whole)
        << "split at " << split;
  }
}

TEST(Crc32cTest, MatchesBitwiseReferenceOnRandomBuffers) {
  Xoshiro256 rng(7);
  for (size_t len : {1u, 2u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u, 4096u}) {
    std::vector<uint8_t> buf(len);
    for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
    EXPECT_EQ(Crc32c(buf.data(), len), Crc32cReference(buf.data(), len))
        << "len " << len;
  }
}

TEST(Crc32cTest, DispatchedKernelMatchesPortableAtEveryLengthClass) {
  // The hardware kernel runs three streams in strides of 3 x 4 KiB, then
  // 3 x 256 B, then one stream of 8-byte words and single bytes.  The
  // lengths take 0-2 long strides, 0, 1, 2 or 15 short ones, and a tail of
  // 0-15 or 760-767 bytes (0, 1 or 95 words, every byte count); start
  // offsets 0-7 move the words across alignments, and a non-zero seed is a
  // chained call.
  constexpr size_t kLong = 3 * 4096;
  constexpr size_t kShort = 3 * 256;
  constexpr size_t kMax = 2 * kLong + kShort + 15;
  std::vector<size_t> tails;
  for (size_t t = 0; t < 16; ++t) tails.push_back(t);
  for (size_t t = kShort - 8; t < kShort; ++t) tails.push_back(t);
  std::vector<size_t> lengths;
  for (size_t longs = 0; longs <= 2; ++longs) {
    for (size_t shorts : {0u, 1u, 2u, 15u}) {
      for (size_t tail : tails) {
        const size_t len = longs * kLong + shorts * kShort + tail;
        if (len <= kMax) lengths.push_back(len);
      }
    }
  }
  // Ascending, because the reference below extends one running prefix.
  std::sort(lengths.begin(), lengths.end());
  Xoshiro256 rng(1234);
  std::vector<uint8_t> buf(kMax + 8);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t off = 0; off < 8; ++off) {
    const uint8_t* p = buf.data() + off;
    const uint32_t seed = off == 0 ? 0 : static_cast<uint32_t>(rng.Next());
    // Reference CRC of p[0, done), extended to each length in turn.
    uint32_t want = seed;
    size_t done = 0;
    for (size_t len : lengths) {
      want = Crc32cReference(p + done, len - done, want);
      done = len;
      ASSERT_EQ(Crc32c(p, len, seed), want)
          << "len " << len << " offset " << off;
      ASSERT_EQ(detail::Crc32cPortable(p, len, seed), want)
          << "len " << len << " offset " << off;
    }
  }
}

TEST(Crc32cTest, CombineMatchesWholeBufferAtEverySplit) {
  // Crc32cCombine(crc(a), crc(b), |b|) == crc(ab) with no access to the
  // bytes — the identity that lets a full-image checksum be derived from
  // per-fragment ones.  Checked at every split (both halves empty too)
  // and chained across many pieces.
  Xoshiro256 rng(41);
  std::vector<uint8_t> buf(509);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  const uint32_t whole = Crc32c(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); split += 7) {
    const uint32_t head = Crc32c(buf.data(), split);
    const uint32_t tail = Crc32c(buf.data() + split, buf.size() - split);
    EXPECT_EQ(Crc32cCombine(head, tail, buf.size() - split), whole)
        << "split at " << split;
  }
  EXPECT_EQ(Crc32cCombine(whole, Crc32c(nullptr, 0), 0), whole);
  // Fragment-chain shape: k equal pieces folded left to right.
  const size_t frag = 64;
  std::vector<uint8_t> chunk(4 * frag);
  for (auto& b : chunk) b = static_cast<uint8_t>(rng.Next());
  uint32_t image = 0;
  for (size_t f = 0; f < 4; ++f) {
    image = Crc32cCombine(image, Crc32c(chunk.data() + f * frag, frag), frag);
  }
  EXPECT_EQ(image, Crc32c(chunk.data(), chunk.size()));
}

TEST(Crc32cTest, CombineMatchesRealBuffersAtChunkLengths) {
  Xoshiro256 rng(5);
  std::vector<uint8_t> a(100);
  for (auto& b : a) b = static_cast<uint8_t>(rng.Next());
  const uint32_t crc_a = Crc32c(a.data(), a.size());
  for (size_t len : {0u, 1u, 16u * 1024, 64u * 1024}) {
    std::vector<uint8_t> ab(a);
    ab.resize(a.size() + len);
    for (size_t i = a.size(); i < ab.size(); ++i) {
      ab[i] = static_cast<uint8_t>(rng.Next());
    }
    const uint32_t crc_b = Crc32c(ab.data() + a.size(), len);
    EXPECT_EQ(Crc32cCombine(crc_a, crc_b, len), Crc32c(ab.data(), ab.size()))
        << "len " << len;
  }
}

TEST(Crc32cTest, ShiftPowersComposePastFourGiB) {
  // No buffer that long fits in a test: check the algebra instead.  The
  // powers x^(2^k) repeat with period 31, so lengths of 2^32 bytes and
  // beyond index the table past its end; x^a * x^b must still be x^(a+b).
  using detail::MultModP;
  using detail::XPowModP;
  EXPECT_EQ(XPowModP(0), 1u << 31);  // x^0
  EXPECT_EQ(XPowModP(1), 1u << 30);  // x^1
  EXPECT_EQ(XPowModP(32), detail::kCrc32cPoly);  // x^32 = P - x^32
  const uint64_t a = (uint64_t{1} << 35) + 12345;  // 4 GiB + in bits
  const uint64_t b = (uint64_t{3} << 40) + 777;
  EXPECT_EQ(MultModP(XPowModP(a), XPowModP(b)), XPowModP(a + b));
  EXPECT_EQ(XPowModP(a, 3), XPowModP(8 * a));
  const uint64_t huge = ~uint64_t{0} >> 4;
  EXPECT_EQ(MultModP(XPowModP(huge), XPowModP(huge)), XPowModP(huge, 1));
  // The same through the public call: shifting over 4 GiB and then over
  // 2 GiB + 3 bytes is one shift over the sum.
  const uint32_t crc = 0xDEADBEEFu;
  const uint64_t four_gib = uint64_t{1} << 32;
  const uint64_t more = (uint64_t{1} << 31) + 3;
  EXPECT_EQ(Crc32cCombine(Crc32cCombine(crc, 0, four_gib), 0, more),
            Crc32cCombine(crc, 0, four_gib + more));
}

TEST(Crc32cTest, SingleBitFlipChangesChecksum) {
  std::vector<uint8_t> buf(4096, 0xA5);
  const uint32_t clean = Crc32c(buf.data(), buf.size());
  for (size_t byte : {0u, 1u, 2048u, 4095u}) {
    for (uint8_t mask : {0x01, 0x80}) {
      buf[byte] ^= mask;
      EXPECT_NE(Crc32c(buf.data(), buf.size()), clean)
          << "flip at " << byte << " mask " << int(mask);
      buf[byte] ^= mask;
    }
  }
}

}  // namespace
}  // namespace nvm
