// Command-line Saber KEM tool — the kind of artifact a downstream user would
// script against. Keys, ciphertexts and shared secrets are exchanged as hex
// files.
//
//   saber_tool keygen  <param> <pk.hex> <sk.hex> [seed-string]
//   saber_tool encaps  <param> <pk.hex> <ct.hex> <key.hex>
//   saber_tool decaps  <param> <sk.hex> <ct.hex> <key.hex>
//   saber_tool info    <param>
//
// <param> is LightSaber, Saber or FireSaber. Without a seed string, keygen
// draws randomness from std::random_device.
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>

#include "common/hex.hpp"
#include "saber/kem.hpp"
#include "sha3/sha3.hpp"

namespace {

using namespace saber;

const kem::SaberParams* find_params(std::string_view name) {
  for (const auto& p : kem::kAllParams) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::vector<u8> read_hex_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  std::erase_if(text, [](char c) { return c == '\n' || c == '\r' || c == ' '; });
  return from_hex(text);
}

void write_hex_file(const std::string& path, std::span<const u8> data) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << to_hex(data) << "\n";
}

/// OS-entropy source (only used when no seed string is supplied).
class SystemRandom final : public RandomSource {
 public:
  void fill(std::span<u8> out) override {
    std::random_device dev;
    for (auto& b : out) b = static_cast<u8>(dev());
  }
};

int run(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: saber_tool keygen|encaps|decaps|info <param> [files...]\n";
    return 2;
  }
  const std::string cmd = argv[1];
  const auto* params = find_params(argv[2]);
  if (params == nullptr) {
    std::cerr << "unknown parameter set '" << argv[2]
              << "' (LightSaber | Saber | FireSaber)\n";
    return 2;
  }
  kem::SaberKemScheme scheme(*params, "ntt");

  if (cmd == "info") {
    std::cout << params->name << ": l=" << params->l << " mu=" << params->mu
              << " eT=" << params->et << "\n"
              << "  pk " << params->pk_bytes() << " B, sk " << params->kem_sk_bytes()
              << " B, ct " << params->ct_bytes() << " B, shared secret 32 B\n";
    return 0;
  }

  if (cmd == "keygen") {
    if (argc < 5) {
      std::cerr << "usage: saber_tool keygen <param> <pk.hex> <sk.hex> [seed]\n";
      return 2;
    }
    std::unique_ptr<RandomSource> rng;
    if (argc > 5) {
      const std::string seed = argv[5];
      rng = std::make_unique<sha3::ShakeDrbg>(
          std::span(reinterpret_cast<const u8*>(seed.data()), seed.size()));
    } else {
      rng = std::make_unique<SystemRandom>();
    }
    const auto kp = scheme.keygen(*rng);
    write_hex_file(argv[3], kp.pk);
    write_hex_file(argv[4], kp.sk);
    std::cout << "wrote " << kp.pk.size() << "-byte public key and " << kp.sk.size()
              << "-byte secret key\n";
    return 0;
  }

  if (cmd == "encaps") {
    if (argc < 6) {
      std::cerr << "usage: saber_tool encaps <param> <pk.hex> <ct.hex> <key.hex>\n";
      return 2;
    }
    const auto pk = read_hex_file(argv[3]);
    SystemRandom rng;
    const auto enc = scheme.encaps(pk, rng);
    write_hex_file(argv[4], enc.ct);
    write_hex_file(argv[5], enc.key);
    std::cout << "wrote " << enc.ct.size() << "-byte ciphertext and shared secret\n";
    return 0;
  }

  if (cmd == "decaps") {
    if (argc < 6) {
      std::cerr << "usage: saber_tool decaps <param> <sk.hex> <ct.hex> <key.hex>\n";
      return 2;
    }
    const auto sk = read_hex_file(argv[3]);
    const auto ct = read_hex_file(argv[4]);
    const auto key = scheme.decaps(ct, sk);
    write_hex_file(argv[5], key);
    std::cout << "wrote shared secret\n";
    return 0;
  }

  std::cerr << "unknown command '" << cmd << "'\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
