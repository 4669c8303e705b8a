#include "mult/ntt.hpp"

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
  // Lane l of row pair i at span 2^b holds the pair's residue e with
  // rotl5(e, 4 - b) = l (ntt_forward_g), so it takes zeta (128 >> b) + the
  // group of 32i + e. Forward runs spans 8..1, inverse 1..8.
  for (unsigned b = 0; b < 4; ++b) {
    for (unsigned i = 0; i < kNttRows / 2; ++i) {
      for (unsigned l = 0; l < 16; ++l) {
        const unsigned e = ((l >> (4 - b)) | (l << (b + 1))) & 31;
        const unsigned z = (128 >> b) + ((32 * i + e) >> (b + 1));
        t.lane_zetas[3 - b][i][l] = t.zetas[z];
        t.lane_zetas_shoup[3 - b][i][l] = t.zetas_shoup[z];
        t.lane_zetas_inv[b][i][l] = t.zetas_inv[z];
        t.lane_zetas_inv_shoup[b][i][l] = t.zetas_inv_shoup[z];
      }
    }
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
// is how an image records K. The kernels move them as u32x16 rows, which
// load and store bytes, so they work on the i64 words in place.
constexpr std::size_t kPrimeWords = ring::kN / 2;
static_assert(sizeof(NttImage<u32, 1>) == kPrimeWords * sizeof(i64));

std::size_t lanes_of(const Transformed& v) {
  SABER_REQUIRE(v.size() == kPrimeWords || v.size() == 2 * kPrimeWords,
                "operand not in the NTT transform domain");
  return v.size() / kPrimeWords;
}

u32* residues(Transformed& v) { return reinterpret_cast<u32*>(v.data()); }
const u32* residues(const Transformed& v) {
  return reinterpret_cast<const u32*>(v.data());
}

template <typename Coeffs>
Transformed prepare(const Coeffs& x, unsigned qbits) {
  Transformed v(ntt_lanes(qbits) * kPrimeWords);
  const auto run = ntt_lanes(qbits) == 1 ? ntt_prepare_g<1, Coeffs, u32>
                                          : ntt_prepare_g<2, Coeffs, u32>;
  run(x, residues(v), ntt_tables());
  return v;
}

std::array<i64, ring::kN> witness(const Transformed& acc) {
  if (acc.empty()) return {};  // absorbed no product
  const auto& t = ntt_tables();
  return lanes_of(acc) == 1 ? ntt_lift_g<1>(residues(acc), t)
                            : ntt_lift_g<2>(residues(acc), t);
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
  NttImage<u32, 2> ta, tb, acc{};
  ntt_prepare_g<2>(centered_lift(a, qbits), ta.data(), t);
  ntt_prepare_g<2>(centered_lift(b, qbits), tb.data(), t);
  ntt_pointwise_acc_g<2>(acc.data(), ta.data(), tb.data(), t);
  const auto w = ntt_lift_g<2>(acc.data(), t);
  return {w.begin(), w.end()};
}

Transformed NttMultiplier::prepare_public(const ring::Poly& a, unsigned qbits) const {
  // centered_lift's coefficients, computed as the residues are taken.
  struct Centered {
    const ring::Poly& a;
    unsigned qbits;
    i64 operator[](std::size_t i) const { return ct::centered_g(a[i], qbits); }
  };
  return prepare(Centered{a, qbits}, qbits);
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
  const auto run = k == 1 ? ntt_pointwise_acc_g<1, u32> : ntt_pointwise_acc_g<2, u32>;
  run(residues(acc), residues(a), residues(s), ntt_tables());
}

std::vector<i64> NttMultiplier::finalize_witness(const Transformed& acc) const {
  const auto w = witness(acc);
  return std::vector<i64>(w.begin(), w.end());
}

ring::Poly NttMultiplier::finalize(const Transformed& acc, unsigned qbits) const {
  return reduce_witness<ring::kN, i64>(witness(acc), qbits);
}

}  // namespace saber::mult
