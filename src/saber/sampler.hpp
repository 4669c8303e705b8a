// Centered-binomial secret sampling (beta_mu in the Saber spec).
//
// Each coefficient is HW(x) - HW(y) for independent (mu/2)-bit strings x, y
// taken LSB-first from a SHAKE-128 output stream, giving values in
// [-mu/2, mu/2] — the "smallness" every architecture in the paper exploits.
//
// The kernel is templated over the byte word type: the SHAKE output derives
// from the secret seed, so under the ct_audit build the whole stream is
// ct::Tainted<u8> and the sampled coefficients come out tainted. The kernel
// works a word at a time: four coefficients span exactly mu/2 whole bytes,
// which load into one u64; a SWAR popcount over its eight (mu/2)-bit fields
// then yields every HW(x) and HW(y) at once. Byte offsets, shift amounts
// and masks are all public; the data never steers a branch or an index.
#pragma once

#include <span>

#include "ct/tainted.hpp"
#include "ring/poly.hpp"
#include "saber/params.hpp"

namespace saber::kem {

/// Word-generic sampler core. Consumes n*mu bits (= n*mu/8 bytes) from
/// `buf`; `buf` must be exactly that long.
template <typename B>
ring::SecretPolyT<ring::kN, ct::rebind_t<B, i8>> cbd_sample_g(std::span<const B> buf,
                                                              unsigned mu) {
  SABER_REQUIRE(mu % 2 == 0 && mu >= 2 && mu <= 10, "unsupported binomial parameter");
  SABER_REQUIRE(buf.size() == ring::kN * mu / 8, "sampler input length mismatch");
  const unsigned half = mu / 2;
  // One set bit at the bottom of each of the eight half-wide fields. A
  // field's Hamming weight is at most half < 2^half, so summing the fields'
  // bits in place never carries into the next field.
  u64 field_lsbs = 0;
  for (unsigned f = 0; f < 8; ++f) field_lsbs |= u64{1} << (f * half);
  const u64 field_mask = mask64(half);
  ring::SecretPolyT<ring::kN, ct::rebind_t<B, i8>> s;
  for (std::size_t g = 0; g < ring::kN / 4; ++g) {
    ct::rebind_t<B, u64> t{0};
    for (unsigned k = 0; k < half; ++k) {
      t = t | (ct::cast<u64>(buf[g * half + k]) << (8 * k));
    }
    ct::rebind_t<B, u64> weights{0};
    for (unsigned j = 0; j < half; ++j) weights = weights + ((t >> j) & field_lsbs);
    for (unsigned i = 0; i < 4; ++i) {
      const auto x = (weights >> (2 * half * i)) & field_mask;
      const auto y = (weights >> (2 * half * i + half)) & field_mask;
      s[4 * g + i] = ct::cast<i8>(ct::cast<i32>(x) - ct::cast<i32>(y));
    }
  }
  return s;
}

/// Sample one secret polynomial from a plain bit stream (production API).
ring::SecretPoly cbd_sample(std::span<const u8> buf, unsigned mu);

}  // namespace saber::kem
