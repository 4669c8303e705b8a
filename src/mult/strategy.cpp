#include "mult/strategy.hpp"

#include <charconv>

#include "common/check.hpp"
#include "mult/karatsuba.hpp"
#include "mult/ntt.hpp"
#include "mult/schoolbook.hpp"
#include "mult/toomcook.hpp"

namespace saber::mult {

std::unique_ptr<PolyMultiplier> make_multiplier(std::string_view name) {
  if (name == "schoolbook") return std::make_unique<SchoolbookMultiplier>();
  if (name == "toom4") return std::make_unique<ToomCookMultiplier>(4);
  if (name == "toom3") return std::make_unique<ToomCookMultiplier>(3);
  if (name == "ntt") return std::make_unique<NttMultiplier>();
  if (name.starts_with("karatsuba-")) {
    const auto digits = name.substr(std::string_view{"karatsuba-"}.size());
    unsigned levels = 0;
    const auto [ptr, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), levels);
    SABER_REQUIRE(ec == std::errc{} && ptr == digits.data() + digits.size(),
                  "malformed karatsuba level");
    return std::make_unique<KaratsubaMultiplier>(levels);
  }
  std::string msg = "unknown multiplier name: " + std::string(name) + " (registered: ";
  const auto names = multiplier_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != 0) msg += ", ";
    msg += names[i];
  }
  msg += ")";
  SABER_REQUIRE(false, msg);
  return nullptr;  // unreachable
}

std::vector<std::string_view> multiplier_names() {
  return {"schoolbook", "karatsuba-8", "toom3", "toom4", "ntt"};
}

namespace {

class PolyMulFnMultiplier final : public PolyMultiplier {
 public:
  explicit PolyMulFnMultiplier(ring::PolyMulFn fn) : fn_(std::move(fn)) {
    SABER_REQUIRE(static_cast<bool>(fn_), "multiplier required");
  }

  std::string_view name() const override { return "poly-mul-fn"; }

  /// `b` must be a small secret embedded by SecretPoly::to_poly.
  ring::Poly multiply(const ring::Poly& a, const ring::Poly& b,
                      unsigned qbits) const override {
    return fn_(a, ring::SecretPoly::from_poly(b, qbits, 127), qbits);
  }

  Transformed prepare_public(const ring::Poly& a, unsigned qbits) const override {
    Transformed v(a.c.begin(), a.c.end());
    v.push_back(qbits);
    return v;
  }

  // prepare_secret: the default raw-coefficient image.

  Transformed make_accumulator() const override { return Transformed(ring::kN, 0); }

  void pointwise_accumulate(Transformed& acc, const Transformed& a,
                            const Transformed& s) const override {
    SABER_REQUIRE(acc.size() == ring::kN && a.size() == ring::kN + 1 &&
                      s.size() == ring::kN,
                  "poly-mul-fn image length mismatch");
    ring::Poly ap;
    ring::SecretPoly sp;
    for (std::size_t i = 0; i < ring::kN; ++i) {
      ap[i] = static_cast<u16>(a[i]);
      sp[i] = static_cast<i8>(s[i]);
    }
    const auto p = fn_(ap, sp, static_cast<unsigned>(a[ring::kN]));
    for (std::size_t i = 0; i < ring::kN; ++i) acc[i] += p[i];
  }

  ring::Poly finalize(const Transformed& acc, unsigned qbits) const override {
    SABER_REQUIRE(acc.size() == ring::kN, "poly-mul-fn accumulator length mismatch");
    ring::Poly r;
    for (std::size_t i = 0; i < ring::kN; ++i) {
      r[i] = static_cast<u16>(static_cast<u64>(acc[i]) & mask64(qbits));
    }
    return r;
  }

  std::vector<i64> finalize_witness(const Transformed&) const override {
    SABER_REQUIRE(false, "a PolyMulFn returns only the masked product: no witness");
    return {};
  }

  // max_accumulated_terms: the default cap holds, since each product adds
  // less than 2^16 per coefficient.

 private:
  ring::PolyMulFn fn_;
};

}  // namespace

std::shared_ptr<const PolyMultiplier> from_poly_mul(ring::PolyMulFn fn) {
  return std::make_shared<const PolyMulFnMultiplier>(std::move(fn));
}

}  // namespace saber::mult
