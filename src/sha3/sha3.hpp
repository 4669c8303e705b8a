// SHA-3 fixed-output hashes and SHAKE extendable-output functions (FIPS 202),
// plus a SHAKE-based deterministic random source used by the KEM layer.
//
// The hash classes take an optional byte word type parameter `B`: production
// uses the default plain u8, while the ct_audit build instantiates them over
// ct::Tainted<u8> so hashing a secret taints every output byte.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "sha3/keccak.hpp"

namespace saber::sha3 {

/// Domain-separation bytes of the padding (FIPS 202 §6).
inline constexpr u8 kSha3Domain = 0x06;
inline constexpr u8 kShakeDomain = 0x1f;

/// SHAKE-128's rate: the bytes absorbed or squeezed per permutation.
inline constexpr std::size_t kShake128Rate = 200 - 2 * (128 / 8);

/// Fixed-output SHA-3 instance. `DigestBytes` in {32, 64}.
template <std::size_t DigestBytes, typename B = u8>
class Sha3 {
 public:
  static constexpr std::size_t kDigestBytes = DigestBytes;
  using Digest = std::array<B, DigestBytes>;

  Sha3() : sponge_(200 - 2 * DigestBytes, kSha3Domain) {}

  Sha3& update(std::span<const B> data) {
    sponge_.absorb(data);
    return *this;
  }

  Digest digest() {
    Digest out{};
    sponge_.squeeze(out);
    return out;
  }

  /// One-shot convenience.
  static Digest hash(std::span<const B> data) { return Sha3().update(data).digest(); }

 private:
  BasicSponge<B> sponge_;
};

using Sha3_256 = Sha3<32>;
using Sha3_512 = Sha3<64>;

/// SHAKE extendable-output function. `SecurityBits` in {128, 256}.
template <std::size_t SecurityBits, typename B = u8>
class Shake {
 public:
  Shake() : sponge_(200 - 2 * (SecurityBits / 8), kShakeDomain) {}

  Shake& update(std::span<const B> data) {
    sponge_.absorb(data);
    return *this;
  }

  /// Squeeze `out.size()` bytes; can be called repeatedly for more output.
  void squeeze(std::span<B> out) { sponge_.squeeze(out); }

  std::vector<B> squeeze_vec(std::size_t n) {
    std::vector<B> out(n);
    squeeze(out);
    return out;
  }

  /// One-shot convenience.
  static std::vector<B> hash(std::span<const B> data, std::size_t out_bytes) {
    Shake x;
    x.update(data);
    return x.squeeze_vec(out_bytes);
  }

 private:
  BasicSponge<B> sponge_;
};

using Shake128 = Shake<128>;
using Shake256 = Shake<256>;

/// SHA3-256 of four equal-length messages in lockstep (SpongeX4).
std::array<Sha3_256::Digest, SpongeX4::kLanes> sha3_256_x4(
    const SpongeX4::Lanes<std::span<const u8>>& in);

/// SHA3-512 of four equal-length messages in lockstep (SpongeX4).
std::array<Sha3_512::Digest, SpongeX4::kLanes> sha3_512_x4(
    const SpongeX4::Lanes<std::span<const u8>>& in);

/// SHAKE-128 of four equal-length messages in lockstep (SpongeX4): out[j]
/// receives the first out[j].size() bytes of SHAKE-128(in[j]).
void shake128_x4(const SpongeX4::Lanes<std::span<const u8>>& in,
                 const SpongeX4::Lanes<std::span<u8>>& out);

/// Deterministic RandomSource backed by SHAKE-128 over a seed.
class ShakeDrbg final : public RandomSource {
 public:
  explicit ShakeDrbg(std::span<const u8> seed) { shake_.update(seed); }

  void fill(std::span<u8> out) override { shake_.squeeze(out); }

 private:
  Shake128 shake_;
};

}  // namespace saber::sha3
