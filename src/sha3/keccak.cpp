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
  // The last, partial block with BasicSponge's multi-rate padding.
  Lanes<std::array<u8, 200>> tail{};
  for (std::size_t j = 0; j < kLanes; ++j) {
    std::copy(in[j].begin() + static_cast<std::ptrdiff_t>(off), in[j].end(), tail[j].begin());
    tail[j][len - off] ^= domain_;
    tail[j][rate_ - 1] ^= 0x80;
  }
  xor_block({tail[0].data(), tail[1].data(), tail[2].data(), tail[3].data()});
  secure_zeroize_object(tail);
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
