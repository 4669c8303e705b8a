#include "sha3/sha3.hpp"

namespace saber::sha3 {

// Explicit instantiations of the hash templates used throughout the library,
// so downstream translation units link against a single copy.
template class Sha3<32>;
template class Sha3<64>;
template class Shake<128>;
template class Shake<256>;

namespace {

template <std::size_t DigestBytes>
std::array<typename Sha3<DigestBytes>::Digest, SpongeX4::kLanes> sha3_x4(
    const SpongeX4::Lanes<std::span<const u8>>& in) {
  std::array<typename Sha3<DigestBytes>::Digest, SpongeX4::kLanes> out{};
  SpongeX4 sponge(200 - 2 * DigestBytes, kSha3Domain);
  sponge.absorb(in);
  sponge.squeeze({out[0], out[1], out[2], out[3]});
  return out;
}

}  // namespace

std::array<Sha3_256::Digest, SpongeX4::kLanes> sha3_256_x4(
    const SpongeX4::Lanes<std::span<const u8>>& in) {
  return sha3_x4<32>(in);
}

std::array<Sha3_512::Digest, SpongeX4::kLanes> sha3_512_x4(
    const SpongeX4::Lanes<std::span<const u8>>& in) {
  return sha3_x4<64>(in);
}

void shake128_x4(const SpongeX4::Lanes<std::span<const u8>>& in,
                 const SpongeX4::Lanes<std::span<u8>>& out) {
  SpongeX4 sponge(kShake128Rate, kShakeDomain);
  sponge.absorb(in);
  sponge.squeeze(out);
}

}  // namespace saber::sha3
