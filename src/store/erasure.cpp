#include "store/erasure.hpp"

#include <cstring>

#include "common/log.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace nvm::store {

namespace gf256 {
namespace {

// log/exp tables of GF(2^8)/0x11D with generator 2, built once at static
// initialisation.  exp is doubled so Mul never reduces mod 255.
struct Tables {
  uint8_t exp[512];
  uint8_t log[256];
  Tables() {
    uint16_t x = 1;
    for (unsigned i = 0; i < 255; ++i) {
      exp[i] = static_cast<uint8_t>(x);
      exp[i + 255] = static_cast<uint8_t>(x);
      log[x] = static_cast<uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11D;
    }
    exp[510] = exp[0];
    exp[511] = exp[1];
    log[0] = 0;  // undefined; callers must not ask
  }
};
const Tables& T() {
  static const Tables t;
  return t;
}

}  // namespace

uint8_t Mul(uint8_t a, uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const Tables& t = T();
  return t.exp[t.log[a] + t.log[b]];
}

uint8_t Div(uint8_t a, uint8_t b) {
  NVM_CHECK(b != 0, "gf256 division by zero");
  if (a == 0) return 0;
  const Tables& t = T();
  return t.exp[255 + t.log[a] - t.log[b]];
}

uint8_t Inv(uint8_t a) {
  NVM_CHECK(a != 0, "gf256 inverse of zero");
  const Tables& t = T();
  return t.exp[255 - t.log[a]];
}

uint8_t Exp(unsigned i) { return T().exp[i % 255]; }

uint8_t Log(uint8_t a) {
  NVM_CHECK(a != 0, "gf256 log of zero");
  return T().log[a];
}

void MulAccPortable(uint8_t coeff, std::span<const uint8_t> src,
                    std::span<uint8_t> out) {
  if (coeff == 0) return;
  if (coeff == 1) {
    for (size_t i = 0; i < src.size(); ++i) out[i] ^= src[i];
    return;
  }
  // One row of the multiplication table for this coefficient — turns the
  // inner loop into a lookup + XOR (the "XOR-based RS" formulation).
  uint8_t row[256];
  for (unsigned v = 0; v < 256; ++v) {
    row[v] = Mul(coeff, static_cast<uint8_t>(v));
  }
  for (size_t i = 0; i < src.size(); ++i) out[i] ^= row[src[i]];
}

namespace {

using MulAccKernel = void (*)(uint8_t coeff, std::span<const uint8_t> src,
                              std::span<uint8_t> out);

#if defined(__x86_64__)

// Split tables: coeff * v = lo[v & 15] ^ hi[v >> 4], since multiplication
// distributes over the XOR of v's two nibbles.  vpshufb looks up 32 nibbles
// in a 16-entry table per instruction (the method of ISA-L and
// klauspost/reedsolomon).
__attribute__((target("avx2"))) void MulAccAvx2(uint8_t coeff,
                                                std::span<const uint8_t> src,
                                                std::span<uint8_t> out) {
  if (coeff == 0) return;
  alignas(16) uint8_t lo[16];
  alignas(16) uint8_t hi[16];
  for (uint8_t v = 0; v < 16; ++v) {
    lo[v] = Mul(coeff, v);
    hi[v] = Mul(coeff, static_cast<uint8_t>(v << 4));
  }
  const __m256i lo_table = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(lo)));
  const __m256i hi_table = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(hi)));
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  const uint8_t* s = src.data();
  uint8_t* d = out.data();
  const size_t n = src.size();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + i));
    const __m256i low = _mm256_and_si256(v, nibble);
    const __m256i high = _mm256_and_si256(_mm256_srli_epi64(v, 4), nibble);
    const __m256i product =
        _mm256_xor_si256(_mm256_shuffle_epi8(lo_table, low),
                         _mm256_shuffle_epi8(hi_table, high));
    auto* dst = reinterpret_cast<__m256i*>(d + i);
    _mm256_storeu_si256(dst,
                        _mm256_xor_si256(_mm256_loadu_si256(dst), product));
  }
  for (; i < n; ++i) d[i] ^= lo[s[i] & 15] ^ hi[s[i] >> 4];
}

#endif  // __x86_64__

MulAccKernel ChooseMulAcc() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return MulAccAvx2;
#endif
  return MulAccPortable;
}

}  // namespace

void MulAcc(uint8_t coeff, std::span<const uint8_t> src,
            std::span<uint8_t> out) {
  NVM_CHECK(out.size() >= src.size(), "MulAcc output shorter than input");
  static const MulAccKernel kernel = ChooseMulAcc();
  kernel(coeff, src, out);
}

}  // namespace gf256

namespace {

// Invert a k×k matrix over GF(2^8) in place via Gauss-Jordan with
// partial pivoting.  Returns false when singular (cannot happen for
// k rows of [I_k ; Cauchy], but the guard keeps corrupt inputs loud).
bool InvertMatrix(std::vector<uint8_t>& a, uint32_t k) {
  std::vector<uint8_t> inv(static_cast<size_t>(k) * k, 0);
  for (uint32_t i = 0; i < k; ++i) inv[i * k + i] = 1;
  for (uint32_t col = 0; col < k; ++col) {
    uint32_t pivot = col;
    while (pivot < k && a[pivot * k + col] == 0) ++pivot;
    if (pivot == k) return false;
    if (pivot != col) {
      for (uint32_t j = 0; j < k; ++j) {
        std::swap(a[pivot * k + j], a[col * k + j]);
        std::swap(inv[pivot * k + j], inv[col * k + j]);
      }
    }
    const uint8_t d = gf256::Inv(a[col * k + col]);
    for (uint32_t j = 0; j < k; ++j) {
      a[col * k + j] = gf256::Mul(a[col * k + j], d);
      inv[col * k + j] = gf256::Mul(inv[col * k + j], d);
    }
    for (uint32_t row = 0; row < k; ++row) {
      if (row == col) continue;
      const uint8_t f = a[row * k + col];
      if (f == 0) continue;
      for (uint32_t j = 0; j < k; ++j) {
        a[row * k + j] ^= gf256::Mul(f, a[col * k + j]);
        inv[row * k + j] ^= gf256::Mul(f, inv[col * k + j]);
      }
    }
  }
  a = std::move(inv);
  return true;
}

}  // namespace

ErasureCodec::ErasureCodec(uint32_t k, uint32_t m) : k_(k), m_(m) {
  NVM_CHECK(k >= 1 && m >= 1, "erasure geometry needs k >= 1, m >= 1");
  NVM_CHECK(k + m <= 256, "erasure geometry exceeds GF(2^8)");
  parity_.resize(static_cast<size_t>(m) * k);
  for (uint32_t r = 0; r < m; ++r) {
    for (uint32_t c = 0; c < k; ++c) {
      // Cauchy: x_r = k + r and y_c = c are disjoint, so x_r ^ y_c != 0.
      parity_[r * k_ + c] =
          gf256::Inv(static_cast<uint8_t>((k + r) ^ c));
    }
  }
}

uint8_t ErasureCodec::ParityCoeff(uint32_t row, uint32_t col) const {
  return parity_[row * k_ + col];
}

std::vector<std::vector<uint8_t>> ErasureCodec::Encode(
    std::span<const uint8_t> chunk) const {
  NVM_CHECK(chunk.size() % k_ == 0, "chunk not divisible into k fragments");
  const size_t frag = chunk.size() / k_;
  std::vector<std::vector<uint8_t>> frags(fragments());
  for (uint32_t i = 0; i < k_; ++i) {
    frags[i].assign(chunk.begin() + i * frag, chunk.begin() + (i + 1) * frag);
  }
  for (uint32_t r = 0; r < m_; ++r) {
    frags[k_ + r].assign(frag, 0);
    for (uint32_t c = 0; c < k_; ++c) {
      gf256::MulAcc(parity_[r * k_ + c], frags[c], frags[k_ + r]);
    }
  }
  return frags;
}

std::vector<std::vector<uint8_t>> ErasureCodec::EncodeParity(
    std::span<const std::vector<uint8_t>> data_frags) const {
  NVM_CHECK(data_frags.size() == k_, "EncodeParity needs exactly k fragments");
  const size_t frag = data_frags[0].size();
  std::vector<std::vector<uint8_t>> parity(m_);
  for (uint32_t r = 0; r < m_; ++r) {
    parity[r].assign(frag, 0);
    for (uint32_t c = 0; c < k_; ++c) {
      NVM_CHECK(data_frags[c].size() == frag, "ragged data fragments");
      gf256::MulAcc(parity_[r * k_ + c], data_frags[c], parity[r]);
    }
  }
  return parity;
}

bool ErasureCodec::Reconstruct(std::vector<std::vector<uint8_t>>& frags) const {
  NVM_CHECK(frags.size() == fragments(), "fragment vector has wrong arity");
  std::vector<uint32_t> present;
  size_t frag = 0;
  for (uint32_t i = 0; i < fragments(); ++i) {
    if (frags[i].empty()) continue;
    if (frag == 0) frag = frags[i].size();
    NVM_CHECK(frags[i].size() == frag, "ragged fragments");
    if (present.size() < k_) present.push_back(i);
  }
  if (present.size() < k_) return false;

  // Fast path: all k data fragments survive — parity recomputes directly.
  bool data_complete = true;
  for (uint32_t i = 0; i < k_; ++i) {
    if (frags[i].empty()) data_complete = false;
  }
  if (!data_complete) {
    // Solve M * data = surviving, with M the surviving rows of [I_k ; C].
    std::vector<uint8_t> mat(static_cast<size_t>(k_) * k_, 0);
    for (uint32_t i = 0; i < k_; ++i) {
      const uint32_t row = present[i];
      if (row < k_) {
        mat[i * k_ + row] = 1;
      } else {
        std::memcpy(&mat[i * k_], &parity_[(row - k_) * k_], k_);
      }
    }
    if (!InvertMatrix(mat, k_)) return false;
    for (uint32_t j = 0; j < k_; ++j) {
      if (!frags[j].empty()) continue;
      frags[j].assign(frag, 0);
      for (uint32_t i = 0; i < k_; ++i) {
        gf256::MulAcc(mat[j * k_ + i], frags[present[i]], frags[j]);
      }
    }
  }
  for (uint32_t r = 0; r < m_; ++r) {
    if (!frags[k_ + r].empty()) continue;
    frags[k_ + r].assign(frag, 0);
    for (uint32_t c = 0; c < k_; ++c) {
      gf256::MulAcc(parity_[r * k_ + c], frags[c], frags[k_ + r]);
    }
  }
  return true;
}

void ErasureCodec::Assemble(std::span<const std::vector<uint8_t>> frags,
                            uint32_t k, std::span<uint8_t> out) {
  const size_t frag = out.size() / k;
  for (uint32_t i = 0; i < k; ++i) {
    NVM_CHECK(frags[i].size() == frag, "assemble: fragment size mismatch");
    std::memcpy(out.data() + i * frag, frags[i].data(), frag);
  }
}

}  // namespace nvm::store
