// CRC32C kernels and the once-per-process choice between them.
//
// The hardware kernel is compiled for SSE4.2 and PCLMULQDQ through
// function target attributes only, so the rest of the program keeps the
// build's baseline ISA, and it runs only on a CPU that reports both.
#include "common/checksum.hpp"

#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace nvm {

namespace {

// Kernels work on the raw CRC register: Crc32c applies the inversions.
using CrcKernel = uint32_t (*)(uint32_t crc, const uint8_t* p, size_t n);

constexpr std::array<std::array<uint32_t, 256>, 8> BuildSliceTables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  // t[0]: the classic byte-at-a-time table.
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? detail::kCrc32cPoly : 0u);
    }
    t[0][i] = crc;
  }
  // t[k]: byte i advanced through k additional zero bytes — what lets the
  // slice-by-8 loop fold eight input bytes with eight independent lookups.
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = t[0][i];
    for (size_t k = 1; k < 8; ++k) {
      crc = t[0][crc & 0xffu] ^ (crc >> 8);
      t[k][i] = crc;
    }
  }
  return t;
}

constexpr auto kSliceTables = BuildSliceTables();

uint64_t Load64(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

uint32_t SliceBy8(uint32_t crc, const uint8_t* p, size_t n) {
  const auto& t = kSliceTables;
  if constexpr (std::endian::native == std::endian::little) {
    // Head: reach 8-byte alignment so the word loads below are aligned.
    while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
      crc = t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
      --n;
    }
    // Body: one 64-bit word per iteration, eight table lookups.
    while (n >= 8) {
      const uint64_t word = Load64(p) ^ crc;
      crc = t[7][word & 0xffu] ^ t[6][(word >> 8) & 0xffu] ^
            t[5][(word >> 16) & 0xffu] ^ t[4][(word >> 24) & 0xffu] ^
            t[3][(word >> 32) & 0xffu] ^ t[2][(word >> 40) & 0xffu] ^
            t[1][(word >> 48) & 0xffu] ^ t[0][(word >> 56) & 0xffu];
      p += 8;
      n -= 8;
    }
  }
  // Tail (and the whole buffer on big-endian hosts): byte at a time.
  while (n > 0) {
    crc = t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
    --n;
  }
  return crc;
}

#if defined(__x86_64__)

// x^(8n - 33) mod P.  A carry-less multiply of a CRC register by it yields
// a 64-bit product worth register * x^(8n - 32); one crc32 step over that
// product multiplies by x^32 and reduces mod P, advancing the register
// through n zero bytes.
constexpr uint64_t ShiftConstant(size_t n) {
  return detail::XPowModP(8 * uint64_t{n} - 33);
}

// One interleaved stride: three streams of `bytes` each, and the constants
// that shift the first stream over the other two and the second over the
// third.
struct Stride {
  size_t bytes;
  uint64_t shift_two;
  uint64_t shift_one;
};

constexpr Stride MakeStride(size_t bytes) {
  return {bytes, ShiftConstant(2 * bytes), ShiftConstant(bytes)};
}

// The long stride runs first, then the short one; whatever is left after
// them runs as one stream.
constexpr Stride kLongStride = MakeStride(4096);
constexpr Stride kShortStride = MakeStride(256);

// One block of three consecutive streams, each in its own crc32 dependency
// chain so the instruction's latency overlaps.  The first stream continues
// `crc` and the other two start from 0; shifting the first two forward and
// XORing the three registers gives the register of the whole block.
__attribute__((target("sse4.2,pclmul"))) uint64_t ThreeStreams(
    uint64_t crc, const uint8_t* p, const Stride& s) {
  uint64_t a = crc;
  uint64_t b = 0;
  uint64_t c = 0;
  for (size_t i = 0; i < s.bytes; i += 8) {
    a = _mm_crc32_u64(a, Load64(p + i));
    b = _mm_crc32_u64(b, Load64(p + s.bytes + i));
    c = _mm_crc32_u64(c, Load64(p + 2 * s.bytes + i));
  }
  const __m128i pa = _mm_clmulepi64_si128(
      _mm_cvtsi64_si128(static_cast<long long>(a)),
      _mm_cvtsi64_si128(static_cast<long long>(s.shift_two)), 0x00);
  const __m128i pb = _mm_clmulepi64_si128(
      _mm_cvtsi64_si128(static_cast<long long>(b)),
      _mm_cvtsi64_si128(static_cast<long long>(s.shift_one)), 0x00);
  const auto product =
      static_cast<uint64_t>(_mm_cvtsi128_si64(_mm_xor_si128(pa, pb)));
  return _mm_crc32_u64(0, product) ^ c;
}

__attribute__((target("sse4.2,pclmul"))) uint32_t HardwareCrc(
    uint32_t crc_in, const uint8_t* p, size_t n) {
  uint64_t crc = crc_in;
  for (const Stride& s : {kLongStride, kShortStride}) {
    for (; n >= 3 * s.bytes; p += 3 * s.bytes, n -= 3 * s.bytes) {
      crc = ThreeStreams(crc, p, s);
    }
  }
  for (; n >= 8; p += 8, n -= 8) crc = _mm_crc32_u64(crc, Load64(p));
  auto tail = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) tail = _mm_crc32_u8(tail, *p);
  return tail;
}

#endif  // __x86_64__

CrcKernel ChooseKernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("pclmul")) {
    return HardwareCrc;
  }
#endif
  return SliceBy8;
}

CrcKernel Kernel() {
  static const CrcKernel kernel = ChooseKernel();
  return kernel;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  return ~Kernel()(~seed, static_cast<const uint8_t*>(data), n);
}

uint32_t Crc32cPatch(uint32_t crc, const void* old_bytes,
                     const void* new_bytes, size_t n, uint64_t tail) {
  const CrcKernel kernel = Kernel();
  const uint32_t delta =
      kernel(0, static_cast<const uint8_t*>(old_bytes), n) ^
      kernel(0, static_cast<const uint8_t*>(new_bytes), n);
  return crc ^ detail::MultModP(detail::XPowModP(tail, 3), delta);
}

namespace detail {

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed) {
  return ~SliceBy8(~seed, static_cast<const uint8_t*>(data), n);
}

}  // namespace detail

}  // namespace nvm
