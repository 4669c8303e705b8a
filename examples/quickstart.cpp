// Quickstart: the Saber KEM end-to-end on the default software multiplier.
//
//   1. generate a key pair
//   2. encapsulate a shared secret under the public key
//   3. decapsulate it with the secret key
//   4. check both sides agree (and that tampering is implicitly rejected)
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "saber/kem.hpp"

int main() {
  using namespace saber;

  // Saber multiplies polynomials thousands of times per KEM operation; the
  // multiplier strategy is injected so it can be swapped (see the
  // kem_on_hardware example for cycle-accurate hardware models).
  kem::SaberKemScheme scheme(kem::kSaber, "ntt");

  Xoshiro256StarStar rng(/*seed=*/42);

  const auto keys = scheme.keygen(rng);
  std::cout << "Saber KEM (l=3, q=2^13, p=2^10)\n";
  std::cout << "  public key:  " << keys.pk.size() << " bytes\n";
  std::cout << "  secret key:  " << keys.sk.size() << " bytes\n";

  const auto enc = scheme.encaps(keys.pk, rng);
  std::cout << "  ciphertext:  " << enc.ct.size() << " bytes\n";
  std::cout << "  shared key (sender):    " << to_hex(enc.key) << "\n";

  const auto key = scheme.decaps(enc.ct, keys.sk);
  std::cout << "  shared key (recipient): " << to_hex(key) << "\n";
  if (key != enc.key) {
    std::cerr << "FAIL: shared secrets disagree\n";
    return 1;
  }

  // CCA security in action: a tampered ciphertext decapsulates to an
  // unrelated key (implicit rejection) instead of an error.
  auto tampered = enc.ct;
  tampered[0] ^= 1;
  const auto rejected = scheme.decaps(tampered, keys.sk);
  std::cout << "  tampered ct decapsulates to unrelated key: "
            << (rejected != enc.key ? "yes" : "NO (BUG)") << "\n";
  return rejected != enc.key ? 0 : 1;
}
