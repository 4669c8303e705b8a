// Replay decomposition: keygen, encaps and decaps re-run as a sequence of
// calls to the library's public stage functions, each under its own span
// (sha3.*, saber.gen.*, saber.sampler.cbd, ring.packing.*, saber.flows.*).
// The caller compares the result with the real operation's output bit for
// bit, so the stage times describe the path the library ships.
#pragma once

#include <memory>
#include <span>
#include <utility>

#include "mult/multiplier.hpp"
#include "saber/kem.hpp"

namespace kembench {

namespace kem = saber::kem;
namespace ring = saber::ring;

/// The product stages of one operation, in the form the real path runs
/// them. Each call records one span under the products' own span name.
class Products {
 public:
  virtual ~Products() = default;
  /// A^T s mod q (keygen).
  virtual ring::PolyVec keygen(const ring::PolyMatrix& a, const ring::SecretVec& s) const = 0;
  /// (A s' mod q, <b, s'> mod p) (encrypt against an unprepared key).
  virtual std::pair<ring::PolyVec, ring::Poly> encrypt(const ring::PolyMatrix& a,
                                                       const ring::PolyVec& b,
                                                       const ring::SecretVec& sp) const = 0;
  /// As encrypt(), against the prepared key bound with bind().
  virtual std::pair<ring::PolyVec, ring::Poly> encrypt_prepared(
      const ring::SecretVec& sp) const = 0;
  /// <b', s> mod p (decrypt).
  virtual ring::Poly decrypt(const ring::PolyVec& bp, const ring::SecretVec& s) const = 0;
};

/// The software fast path: mult::prepare_secrets, mult::matrix_vector_mul
/// and mult::inner_product over one PolyMultiplier.
class SoftwareProducts final : public Products {
 public:
  SoftwareProducts(const saber::mult::PolyMultiplier& m, const char* span_name)
      : m_(m), span_name_(span_name) {}

  /// Key to use in encrypt_prepared(); must outlive its use.
  void bind(const kem::PreparedPublicKey* prep) { prep_ = prep; }

  ring::PolyVec keygen(const ring::PolyMatrix& a, const ring::SecretVec& s) const override;
  std::pair<ring::PolyVec, ring::Poly> encrypt(const ring::PolyMatrix& a,
                                               const ring::PolyVec& b,
                                               const ring::SecretVec& sp) const override;
  std::pair<ring::PolyVec, ring::Poly> encrypt_prepared(
      const ring::SecretVec& sp) const override;
  ring::Poly decrypt(const ring::PolyVec& bp, const ring::SecretVec& s) const override;

 private:
  const saber::mult::PolyMultiplier& m_;
  const char* span_name_;
  const kem::PreparedPublicKey* prep_ = nullptr;
};

/// The generic path the hardware models take: ring::matrix_vector_mul and
/// ring::inner_product over a PolyMulFn, one product at a time.
class GenericProducts final : public Products {
 public:
  GenericProducts(ring::PolyMulFn fn, const char* span_name)
      : fn_(std::move(fn)), span_name_(span_name) {}

  ring::PolyVec keygen(const ring::PolyMatrix& a, const ring::SecretVec& s) const override;
  std::pair<ring::PolyVec, ring::Poly> encrypt(const ring::PolyMatrix& a,
                                               const ring::PolyVec& b,
                                               const ring::SecretVec& sp) const override;
  std::pair<ring::PolyVec, ring::Poly> encrypt_prepared(
      const ring::SecretVec& sp) const override;
  ring::Poly decrypt(const ring::PolyVec& bp, const ring::SecretVec& s) const override;

 private:
  ring::PolyMulFn fn_;
  const char* span_name_;
};

/// Runs every product on `primary`, then again on `base`, and throws if the
/// two disagree. The checked workload measures the checking overhead with
/// it: primary is the supervised facade, base the same backend unwrapped.
class BaselinedProducts final : public Products {
 public:
  BaselinedProducts(const Products& primary, const Products& base)
      : primary_(primary), base_(base) {}

  ring::PolyVec keygen(const ring::PolyMatrix& a, const ring::SecretVec& s) const override;
  std::pair<ring::PolyVec, ring::Poly> encrypt(const ring::PolyMatrix& a,
                                               const ring::PolyVec& b,
                                               const ring::SecretVec& sp) const override;
  std::pair<ring::PolyVec, ring::Poly> encrypt_prepared(
      const ring::SecretVec& sp) const override;
  ring::Poly decrypt(const ring::PolyVec& bp, const ring::SecretVec& s) const override;

 private:
  const Products& primary_;
  const Products& base_;
};

kem::KemKeyPair replay_keygen(const kem::SaberParams& params, const kem::Seed& seed_a,
                              const kem::Seed& seed_s, const kem::SharedSecret& z,
                              const Products& products);

/// `prepared`: encrypt through Products::encrypt_prepared, as KemBatch's
/// encaps_many does, instead of unpacking pk and expanding A.
kem::EncapsResult replay_encaps(const kem::SaberParams& params, std::span<const saber::u8> pk,
                                const kem::Message& m_raw, const Products& products,
                                bool prepared);

kem::SharedSecret replay_decaps(const kem::SaberParams& params,
                                std::span<const saber::u8> ct,
                                std::span<const saber::u8> sk, const Products& products);

}  // namespace kembench
