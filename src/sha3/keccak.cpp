#include "sha3/keccak.hpp"

#include <algorithm>

namespace saber::sha3 {

void keccak_f1600(KeccakState& state) { keccak_f1600_g(state); }

void keccak_f1600_x4(KeccakStateT<u64x4>& state) { keccak_f1600_g(state); }

SpongeX4::SpongeX4(std::size_t rate_bytes, u8 domain) : rate_(rate_bytes), domain_(domain) {
  SABER_REQUIRE(rate_bytes > 0 && rate_bytes < 200 && rate_bytes % 8 == 0,
                "sponge rate must be a positive multiple of 8 below 200");
}

SpongeX4::~SpongeX4() { secure_zeroize(std::span<u64x4>(state_)); }

void SpongeX4::absorb(const Lanes<std::span<const u8>>& in) {
  SABER_REQUIRE(!absorbed_, "SpongeX4 absorbs once");
  const std::size_t len = in[0].size();
  for (const auto& m : in) SABER_REQUIRE(m.size() == len, "SpongeX4 lanes differ in length");
  const auto xor_block = [&](const Lanes<const u8*>& p) {
    for (std::size_t w = 0; w < rate_ / 8; ++w) {
      state_[w] ^= u64x4{{load_le64(p[0] + 8 * w), load_le64(p[1] + 8 * w),
                          load_le64(p[2] + 8 * w), load_le64(p[3] + 8 * w)}};
    }
  };
  std::size_t off = 0;
  for (; len - off >= rate_; off += rate_) {
    xor_block({in[0].data() + off, in[1].data() + off, in[2].data() + off,
               in[3].data() + off});
    keccak_f1600_x4(state_);
  }
  // The last, partial block with BasicSponge's multi-rate padding, built
  // little-endian in tail_'s words.
  const std::size_t rest = len - off;
  for (std::size_t j = 0; j < kLanes; ++j) {
    const u8* src = in[j].data() + off;
    std::size_t i = 0;
    for (; i + 8 <= rest; i += 8) tail_[i / 8].v[j] = load_le64(src + i);
    for (; i < rest; ++i) tail_[i / 8].v[j] |= u64{src[i]} << (8 * (i % 8));
    tail_[rest / 8].v[j] ^= u64{domain_} << (8 * (rest % 8));
    tail_[rate_ / 8 - 1].v[j] ^= u64{0x80} << 56;
  }
  for (std::size_t w = 0; w < rate_ / 8; ++w) state_[w] ^= tail_[w];
  secure_zeroize(std::span<u64x4>(tail_));
  keccak_f1600_x4(state_);
  absorbed_ = true;
  fresh_ = true;
}

void SpongeX4::squeeze(const Lanes<std::span<u8>>& out) {
  SABER_REQUIRE(absorbed_, "SpongeX4 squeeze before absorb");
  const std::size_t len = out[0].size();
  for (const auto& o : out) SABER_REQUIRE(o.size() == len, "SpongeX4 lanes differ in length");
  for (std::size_t off = 0; off < len; off += rate_) {
    if (!fresh_) keccak_f1600_x4(state_);
    fresh_ = false;
    const std::size_t n = std::min(rate_, len - off);
    for (std::size_t j = 0; j < kLanes; ++j) {
      u8* dst = out[j].data() + off;
      std::size_t i = 0;
      for (; i + 8 <= n; i += 8) store_le64(dst + i, state_[i / 8].v[j]);
      for (; i < n; ++i) dst[i] = static_cast<u8>(state_[i / 8].v[j] >> (8 * (i % 8)));
    }
  }
}

}  // namespace saber::sha3
