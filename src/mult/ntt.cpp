#include "mult/ntt.hpp"

#include <cstring>

#include "common/check.hpp"

namespace saber::mult {

namespace {

// Bit-reversal of an 8-bit index (N = 256 = 2^8).
constexpr unsigned brv8(unsigned x) {
  unsigned r = 0;
  for (int i = 0; i < 8; ++i) {
    r = (r << 1) | ((x >> i) & 1u);
  }
  return r;
}

NttPrimeTables make_prime_tables(u32 p) {
  constexpr std::size_t n = ring::kN;
  SABER_ENSURE((p - 1) % (2 * n) == 0, "prime does not support 2N-th roots");
  const u64 psi = powmod(NttMultiplier::kGenerator, (p - 1) / (2 * n), p);
  SABER_ENSURE(powmod(psi, n, p) == p - 1, "psi is not a primitive 2N-th root");
  const u64 psi_inv = invmod_prime(psi, p);
  NttPrimeTables t;
  t.p = p;
  u32 inv = p;  // p^-1 mod 2^32 by Newton: p*p ≡ 1 (mod 8), each step doubles the bits
  for (int i = 0; i < 4; ++i) inv *= 2u - p * inv;
  t.p_neg_inv = 0u - inv;
  for (unsigned i = 0; i < n; ++i) {
    t.zetas[i] = static_cast<u32>(powmod(psi, brv8(i), p));
    t.zetas_shoup[i] = ntt_twiddle(t.zetas[i], p).shoup;
    t.zetas_inv[i] = static_cast<u32>(powmod(psi_inv, brv8(i), p));
    t.zetas_inv_shoup[i] = ntt_twiddle(t.zetas_inv[i], p).shoup;
  }
  const u64 n_inv_mont = mulmod(invmod_prime(n, p), (u64{1} << 32) % p, p);
  t.n_inv_mont = ntt_twiddle(static_cast<u32>(n_inv_mont), p);
  return t;
}

NttTables make_ntt_tables() {
  NttTables t;
  for (std::size_t k = 0; k < kNttPrimes.size(); ++k) {
    t.primes[k] = make_prime_tables(kNttPrimes[k]);
  }
  t.crt = ntt_twiddle(static_cast<u32>(invmod_prime(kNttPrimes[0], kNttPrimes[1])),
                      kNttPrimes[1]);
  return t;
}

// A Transformed holds the bytes of an NttImage<u32>: 256 i64 words carry the
// 256 residues mod p1 followed by the 256 residues mod p2.
static_assert(sizeof(NttImage<u32>) == ring::kN * sizeof(i64));

NttImage<u32> unpack_image(const Transformed& v) {
  SABER_REQUIRE(v.size() == ring::kN, "operand not in the NTT transform domain");
  NttImage<u32> img;
  std::memcpy(img.data(), v.data(), sizeof(img));
  return img;
}

Transformed pack_image(const NttImage<u32>& img) {
  Transformed v(ring::kN);
  std::memcpy(v.data(), img.data(), sizeof(img));
  return v;
}

}  // namespace

const NttTables& ntt_tables() {
  static const NttTables t = make_ntt_tables();
  return t;
}

NttMultiplier::NttMultiplier() { (void)ntt_tables(); }

Transformed NttMultiplier::prepare_public(const ring::Poly& a, unsigned qbits) const {
  return pack_image(ntt_prepare_g(centered_lift(a, qbits), ntt_tables(), ops_));
}

// Small signed secrets embed directly: no centering, so qbits is unused.
Transformed NttMultiplier::prepare_secret(const ring::SecretPoly& s, unsigned) const {
  return pack_image(ntt_prepare_g(s.c, ntt_tables(), ops_));
}

Transformed NttMultiplier::make_accumulator() const { return Transformed(ring::kN, 0); }

void NttMultiplier::pointwise_accumulate(Transformed& acc, const Transformed& a,
                                         const Transformed& s) const {
  auto img = unpack_image(acc);
  ntt_pointwise_acc_g(img, unpack_image(a), unpack_image(s), ntt_tables(), ops_);
  std::memcpy(acc.data(), img.data(), sizeof(img));  // acc.size() == N: checked above
}

std::vector<i64> NttMultiplier::finalize_witness(const Transformed& acc) const {
  auto img = unpack_image(acc);
  const auto w = ntt_lift_g(img, ntt_tables(), ops_);
  return std::vector<i64>(w.begin(), w.end());
}

ring::Poly NttMultiplier::finalize(const Transformed& acc, unsigned qbits) const {
  auto img = unpack_image(acc);
  return reduce_witness<ring::kN, i64>(ntt_lift_g(img, ntt_tables(), ops_), qbits);
}

}  // namespace saber::mult
