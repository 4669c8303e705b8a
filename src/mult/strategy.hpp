// Factory/registry for software multipliers, used by tests, benches and the
// examples to iterate over every algorithm uniformly.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "mult/multiplier.hpp"
#include "ring/polyvec.hpp"

namespace saber::mult {

/// Known algorithm names: "schoolbook", "karatsuba-<levels>" (e.g.
/// "karatsuba-8"), "toom4", "ntt". Throws ContractViolation for unknown names.
std::unique_ptr<PolyMultiplier> make_multiplier(std::string_view name);

/// All registered algorithm names (one representative per family).
std::vector<std::string_view> multiplier_names();

/// Wrap a per-product ring::PolyMulFn (a cycle-accurate hardware core, a
/// custom closure) as an identity-transform PolyMultiplier, so it runs through
/// the same split-transform pipeline as the software backends. The public
/// image is the raw coefficients plus qbits, the secret image the raw
/// coefficients; pointwise_accumulate calls `fn` once per product and adds
/// the result into an N-word accumulator, finalize masks to qbits. Every
/// adapter shares one name(): the images are plain coefficients, so a key
/// prepared through one fn is valid for any other. finalize_witness throws,
/// because a fn returns only the masked product.
std::shared_ptr<const PolyMultiplier> from_poly_mul(ring::PolyMulFn fn);

}  // namespace saber::mult
