#include "saber/gen.hpp"

#include <vector>

#include "common/check.hpp"
#include "ring/packing.hpp"

namespace saber::kem {

namespace {

constexpr std::size_t kPolyBytes = SaberParams::n * SaberParams::eq / 8;

}  // namespace

ring::PolyMatrix gen_matrix(std::span<const u8> seed, const SaberParams& params) {
  SABER_REQUIRE(seed.size() == SaberParams::seed_bytes, "bad seed length");
  sha3::Shake128 shake;
  shake.update(seed);
  ring::PolyMatrix a(params.l, params.l);
  std::array<u8, kPolyBytes> bytes;
  for (std::size_t r = 0; r < params.l; ++r) {
    for (std::size_t c = 0; c < params.l; ++c) {
      shake.squeeze(bytes);
      ring::unpack_bits13(bytes, a.at(r, c).c);
    }
  }
  return a;
}

ring::SecretVec gen_secret(std::span<const u8> seed, const SaberParams& params) {
  return gen_secret_g(seed, params);
}

std::array<KeygenExpansion, kBatchLanes> expand_keygen_x4(
    const sha3::SpongeX4::Lanes<std::span<const u8>>& seed_a_in,
    const sha3::SpongeX4::Lanes<std::span<const u8>>& seed_s, const SaberParams& params) {
  for (std::size_t j = 0; j < kBatchLanes; ++j) {
    SABER_REQUIRE(seed_a_in[j].size() == SaberParams::seed_bytes &&
                      seed_s[j].size() == SaberParams::seed_bytes,
                  "bad seed length");
  }
  std::array<KeygenExpansion, kBatchLanes> ex;
  sha3::shake128_x4(seed_a_in, {ex[0].seed_a, ex[1].seed_a, ex[2].seed_a, ex[3].seed_a});

  // A: each lane's stream is squeezed a block at a time into a window that
  // holds one polynomial's bytes plus a block, and unpacked a polynomial at
  // a time, row-major as gen_matrix does.
  constexpr std::size_t kRate = sha3::kShake128Rate;
  sha3::SpongeX4 a_sponge(kRate, sha3::kShakeDomain);
  a_sponge.absorb({ex[0].seed_a, ex[1].seed_a, ex[2].seed_a, ex[3].seed_a});
  sha3::SpongeX4::Lanes<std::array<u8, kPolyBytes + kRate>> window;
  const auto block = [&](std::size_t j, std::size_t at) {
    return std::span<u8>(window[j]).subspan(at, kRate);
  };
  for (auto& e : ex) e.a = ring::PolyMatrix(params.l, params.l);
  std::size_t have = 0;
  for (std::size_t k = 0; k < params.l * params.l; ++k) {
    for (; have < kPolyBytes; have += kRate) {
      a_sponge.squeeze({block(0, have), block(1, have), block(2, have), block(3, have)});
    }
    for (std::size_t j = 0; j < kBatchLanes; ++j) {
      ring::unpack_bits13(std::span<const u8>(window[j]).first(kPolyBytes),
                          ex[j].a.at(k / params.l, k % params.l).c);
      std::copy(window[j].begin() + kPolyBytes, window[j].begin() + have, window[j].begin());
    }
    have -= kPolyBytes;
  }

  const std::size_t s_bytes = secret_stream_bytes(params);
  std::vector<u8> s_buf(kBatchLanes * s_bytes);
  const auto s_stream = [&](std::size_t j) {
    return std::span<u8>(s_buf).subspan(j * s_bytes, s_bytes);
  };
  sha3::shake128_x4(seed_s, {s_stream(0), s_stream(1), s_stream(2), s_stream(3)});
  for (std::size_t j = 0; j < kBatchLanes; ++j) {
    ex[j].s = sample_secret_g(std::span<const u8>(s_stream(j)), params);
  }
  secure_zeroize(std::span<u8>(s_buf));
  return ex;
}

}  // namespace saber::kem
