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

// A Transformed holds the bytes of an NttImage<u32, K>: K * N/2 i64 words,
// the N residues mod p1 first, then (K = 2) the N residues mod p2. Its length
// is how an image records K.
constexpr std::size_t kPrimeWords = ring::kN / 2;
static_assert(sizeof(NttImage<u32, 1>) == kPrimeWords * sizeof(i64));

std::size_t lanes_of(const Transformed& v) {
  SABER_REQUIRE(v.size() == kPrimeWords || v.size() == 2 * kPrimeWords,
                "operand not in the NTT transform domain");
  return v.size() / kPrimeWords;
}

/// The first K primes' residues of an image (v.size() >= K * kPrimeWords).
template <std::size_t K>
NttImage<u32, K> unpack_image(const Transformed& v) {
  NttImage<u32, K> img;
  std::memcpy(img.data(), v.data(), sizeof(img));
  return img;
}

template <std::size_t K>
Transformed pack_image(const NttImage<u32, K>& img) {
  Transformed v(K * kPrimeWords);
  std::memcpy(v.data(), img.data(), sizeof(img));
  return v;
}

template <typename Coeffs>
Transformed prepare(const Coeffs& x, unsigned qbits) {
  const auto& t = ntt_tables();
  return ntt_lanes(qbits) == 1 ? pack_image(ntt_prepare_g<1>(x, t))
                               : pack_image(ntt_prepare_g<2>(x, t));
}

template <std::size_t K>
void accumulate(Transformed& acc, const Transformed& a, const Transformed& s) {
  auto img = unpack_image<K>(acc);
  ntt_pointwise_acc_g(img, unpack_image<K>(a), unpack_image<K>(s), ntt_tables());
  std::memcpy(acc.data(), img.data(), sizeof(img));
}

template <std::size_t K>
std::array<i64, ring::kN> lift(const Transformed& acc) {
  auto img = unpack_image<K>(acc);
  return ntt_lift_g(img, ntt_tables());
}

std::array<i64, ring::kN> witness(const Transformed& acc) {
  if (acc.empty()) return {};  // absorbed no product
  return lanes_of(acc) == 1 ? lift<1>(acc) : lift<2>(acc);
}

}  // namespace

const NttTables& ntt_tables() {
  static const NttTables t = make_ntt_tables();
  return t;
}

NttMultiplier::NttMultiplier() { (void)ntt_tables(); }

std::vector<i64> NttMultiplier::multiply_witness(const ring::Poly& a, const ring::Poly& b,
                                                 unsigned qbits) const {
  const auto& t = ntt_tables();
  NttImage<u32, 2> acc{};
  ntt_pointwise_acc_g(acc, ntt_prepare_g<2>(centered_lift(a, qbits), t),
                      ntt_prepare_g<2>(centered_lift(b, qbits), t), t);
  const auto w = ntt_lift_g(acc, t);
  return {w.begin(), w.end()};
}

Transformed NttMultiplier::prepare_public(const ring::Poly& a, unsigned qbits) const {
  return prepare(centered_lift(a, qbits), qbits);
}

// Small signed secrets embed directly, without centering: qbits only picks
// the prime count.
Transformed NttMultiplier::prepare_secret(const ring::SecretPoly& s,
                                          unsigned qbits) const {
  return prepare(s.c, qbits);
}

void NttMultiplier::pointwise_accumulate(Transformed& acc, const Transformed& a,
                                         const Transformed& s) const {
  const std::size_t k = lanes_of(a);
  SABER_REQUIRE(lanes_of(s) >= k, "secret image has fewer NTT primes than the public one");
  if (acc.empty()) acc.assign(a.size(), 0);
  SABER_REQUIRE(acc.size() == a.size(), "accumulator holds another NTT prime count");
  if (k == 1) {
    accumulate<1>(acc, a, s);
  } else {
    accumulate<2>(acc, a, s);
  }
}

std::vector<i64> NttMultiplier::finalize_witness(const Transformed& acc) const {
  const auto w = witness(acc);
  return std::vector<i64>(w.begin(), w.end());
}

ring::Poly NttMultiplier::finalize(const Transformed& acc, unsigned qbits) const {
  return reduce_witness<ring::kN, i64>(witness(acc), qbits);
}

}  // namespace saber::mult
