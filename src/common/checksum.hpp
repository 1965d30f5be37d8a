// CRC32C (Castagnoli) — the per-chunk integrity checksum of the store.
//
// The polynomial is the Castagnoli one (0x11EDC6F41, reflected
// 0x82f63b78) — better error-detection properties for storage payloads
// than CRC32/zlib and the same check values as iSCSI/ext4.  Crc32c runs
// the fastest kernel this CPU has, chosen once at first use: on x86-64
// with SSE4.2 and PCLMULQDQ, three interleaved streams of the `crc32`
// instruction merged with carry-less multiplies (checksum.cpp); everywhere
// else, portable slice-by-8 tables.  Both compute the same function, so a
// stored CRC never depends on the node that computed it.  This is host
// cost only: the store's modelled hashing time is
// StoreConfig::checksum_bw_gbps, which no kernel choice changes.
//
// Convention: Crc32c(data, n) with no seed checksums one whole buffer;
// passing a previous result as `seed` continues it, so
//   Crc32c(b, nb, Crc32c(a, na)) == Crc32c(ab, na + nb)
// (the pre/post inversion is internal, as in zlib's crc32()).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace nvm {

// CRC32C of [data, data + n).  Chain partial buffers via `seed` (see above).
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

namespace detail {

// The slice-by-8 kernel Crc32c falls back to; exposed so the tests can pin
// the dispatched kernel against it.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed = 0);

inline constexpr uint32_t kCrc32cPoly = 0x82f63b78u;  // reflected Castagnoli

// Polynomials modulo P in the reflected representation: bit 31 is x^0 and
// bit 0 is x^31.  a(x) * b(x) mod P, one bit of `a` per step while b
// advances by x (zlib 1.2.12's multmodp with the Castagnoli polynomial,
// written with masks instead of branches on the data).
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t p = 0;
  for (int bit = 31; bit >= 0; --bit) {
    p ^= b & (0u - ((a >> bit) & 1u));
    b = (b >> 1) ^ (kCrc32cPoly & (0u - (b & 1u)));
  }
  return p;
}

// x^(2^k) mod P for k < 31.  x^(2^31) = x mod P (the order of x divides
// 2^31 - 1), so the powers repeat with period 31 and the table serves
// every k as k mod 31.
constexpr std::array<uint32_t, 31> BuildCrc32cX2nTable() {
  std::array<uint32_t, 31> t{};
  uint32_t p = 1u << 30;  // x^1
  for (uint32_t& e : t) {
    e = p;
    p = MultModP(p, p);
  }
  return t;
}

inline constexpr auto kCrc32cX2n = BuildCrc32cX2nTable();
static_assert(MultModP(kCrc32cX2n[30], kCrc32cX2n[30]) == kCrc32cX2n[0],
              "x^(2^31) must equal x mod P");

// x^(n * 2^k) mod P: one table multiply per set bit of n.
constexpr uint32_t XPowModP(uint64_t n, unsigned k = 0) {
  uint32_t p = 1u << 31;  // x^0
  for (; n != 0; n >>= 1, ++k) {
    if ((n & 1u) != 0) p = MultModP(kCrc32cX2n[k % 31], p);
  }
  return p;
}

}  // namespace detail

// CRC32C of a concatenation from the parts' checksums alone:
//   Crc32cCombine(Crc32c(a, na), Crc32c(b, nb), nb) == Crc32c(ab, na + nb)
// Advancing crc_a through len_b zero bytes is multiplication by
// x^(8 * len_b) mod P (the zlib 1.2.12 crc32_combine construction).
// O(log len_b), no access to the underlying bytes — what lets a
// full-image checksum be derived from per-fragment ones.
inline uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b,
                              uint64_t len_b) {
  return detail::MultModP(detail::XPowModP(len_b, 3), crc_a) ^ crc_b;
}

// CRC32C of a buffer after the `n` bytes of one span in it changed from
// `old_bytes` to `new_bytes`, from the buffer's checksum `crc` before the
// change and `tail`, the number of bytes after the span:
//   Crc32cPatch(Crc32c(buf), old, new, n, tail) == Crc32c(patched buf)
// CRC32C is linear in the bytes, so the change depends only on the XOR of
// the two spans, carried through the tail by Crc32cCombine's shift:
//   new = crc ^ (x^(8 * tail) * (raw(old) ^ raw(new)) mod P),
// where raw() is the CRC register over a span alone (zero start, no
// inversion).  Reads 2n bytes; the rest of the buffer is never touched.
uint32_t Crc32cPatch(uint32_t crc, const void* old_bytes,
                     const void* new_bytes, size_t n, uint64_t tail);

}  // namespace nvm
