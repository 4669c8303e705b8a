// Regression vectors ("pseudo-KATs").
//
// NIST KAT files are not available offline, so these vectors were generated
// by this implementation itself on a fixed deterministic seed stream and then
// frozen. They do not prove spec conformance (the self-consistency and
// cross-backend tests do the functional work); they pin down every byte of
// the serialization and hashing pipeline so that any future refactor that
// changes outputs — packing order, sampler bit order, hash domain, FO flow —
// fails loudly here instead of silently changing the scheme.
#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "mult/strategy.hpp"
#include "saber/kem.hpp"
#include "sha3/sha3.hpp"

namespace saber::kem {
namespace {

struct Frozen {
  std::string_view param;
  const char* pk_hash;
  const char* sk_hash;
  const char* ct_hash;
  const char* key;
};

// Seed stream: ShakeDrbg over the parameter-set name; multiplier: schoolbook.
constexpr Frozen kVectors[] = {
    {"LightSaber",
     "d82f1785daf47f60915f706769a401eec68a5ae5c84265dfbe334ebee6eeaf13",
     "deca77da2a94128e34977565c29f04d2a1482ab37bcec164f8a58f463132866c",
     "e1f34fce62d71b9b4e1b5c49eb86dc543027e7d658b5f22f6b87bde89fbe9bae",
     "468b42b10165c5856f09209b478b2b0b386b600be62d77e66a48d42bbf13bbdb"},
    {"Saber",
     "7763932835c49dbf96ff21e669f052c49dc6deee796a8792d28a01dc75512e19",
     "9b73290f281c663cb62b33ce7ca04ed0abda0e0f9676b6eab2503127f5de4003",
     "038b48532f3c168f199de71a0d449fd0bd84b220b3a1f3a6f012e828e720685e",
     "f7e3f847d0d95cce238eef539d203d3e2a176d07b64974238958931c7ee777bf"},
    {"FireSaber",
     "687d64adbae43edb3ce9622c1987adeb2bc0c4e150386ece7d6cd99319d47561",
     "20388d36134077ec8c68119bc142f060fa7ed4b9c841ca25fca0a2b355980c41",
     "6699debcca080db9aa573b76ff498c216d8523fec473eb77361559b7edda6939",
     "12c075eca7f361a29a5e512a2819be4dd6798cf36eca49f1d93115a3904671a3"},
};

const SaberParams& by_name(std::string_view name) {
  for (const auto& p : kAllParams) {
    if (p.name == name) return p;
  }
  throw std::runtime_error("unknown parameter set");
}

class Regression : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Regression, FrozenVectors) {
  const auto& v = kVectors[GetParam()];
  const auto& params = by_name(v.param);
  SaberKemScheme scheme(params, "schoolbook");

  std::vector<u8> name_bytes(v.param.begin(), v.param.end());
  sha3::ShakeDrbg rng(name_bytes);
  const auto kp = scheme.keygen(rng);
  const auto enc = scheme.encaps(kp.pk, rng);
  const auto key = scheme.decaps(enc.ct, kp.sk);

  auto digest = [](std::span<const u8> d) { return to_hex(sha3::Sha3_256::hash(d)); };
  EXPECT_EQ(digest(kp.pk), v.pk_hash);
  EXPECT_EQ(digest(kp.sk), v.sk_hash);
  EXPECT_EQ(digest(enc.ct), v.ct_hash);
  EXPECT_EQ(to_hex(key), v.key);
  EXPECT_EQ(key, enc.key);
}

INSTANTIATE_TEST_SUITE_P(AllParams, Regression,
                         ::testing::Range<std::size_t>(0, std::size(kVectors)),
                         [](const auto& pinfo) {
                           return std::string(kVectors[pinfo.param].param);
                         });

// Every backend must reproduce the frozen vectors — the serialization layer
// sits above the multiplier, so a backend-dependent byte is always a bug.
TEST(Regression, AllBackendsReproduceSaberVector) {
  const auto& v = kVectors[1];
  for (const auto name : mult::multiplier_names()) {
    SaberKemScheme scheme(kSaber, name);
    std::vector<u8> name_bytes(v.param.begin(), v.param.end());
    sha3::ShakeDrbg rng(name_bytes);
    const auto kp = scheme.keygen(rng);
    const auto enc = scheme.encaps(kp.pk, rng);
    EXPECT_EQ(to_hex(sha3::Sha3_256::hash(enc.ct)), v.ct_hash) << name;
    EXPECT_EQ(to_hex(enc.key), v.key) << name;
  }
}

}  // namespace
}  // namespace saber::kem
